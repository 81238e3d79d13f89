#!/usr/bin/env python3
"""Tables from the samples scripts/sigprof_sampler.c wrote.

Usage: profile_report.py EXECUTABLE SAMPLES

SAMPLES holds one "rip stackword" hex pair per line; SAMPLES.maps is the
sampled process's /proc/self/maps.  Prints the TOP rows of three tables
of sample counts:

  - per function: the out-of-line function a sample's RIP is in;
  - per inline frame: the innermost function inlined at that RIP;
  - per shared object: the mapped file the RIP is in.

EXECUTABLE must carry debug info (-g).  A sample in libc is attributed to
its caller: the word at the stack pointer, which is the return address
when libc was sampled in a leaf function (memset, memcpy, or calloc's
tail-called memset).  Such rows end in " [libc]".  When that word does
not point into EXECUTABLE, the sample counts as "libc (caller unknown)".
"""

import collections
import os
import subprocess
import sys

ET_EXEC = 2
# Rows printed per table.
TOP = 30


def read_maps(path):
    """Executable mappings as (start, end, path), with each file's load
    bias: what to subtract from a runtime address to get the ELF vaddr."""
    maps = []
    first_start = {}
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip()
            if int(parts[2], 16) == 0 and name not in first_start:
                first_start[name] = lo
            if "x" in parts[1]:
                maps.append((lo, hi, name))
    bias = {}
    for _, _, name in maps:
        if name in bias:
            continue
        bias[name] = first_start.get(name, 0)
        try:
            with open(name, "rb") as elf:
                if int.from_bytes(elf.read(18)[16:18], "little") == ET_EXEC:
                    bias[name] = 0
        except OSError:
            pass
    return maps, bias


def find_map(maps, addr):
    for lo, hi, name in maps:
        if lo <= addr < hi:
            return name
    return None


def symbolize(executable, addrs):
    """addr -> inline frames, innermost first, via addr2line -f -C -i."""
    addrs = sorted(addrs)
    if not addrs:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", executable],
        input="".join("%x\n" % a for a in addrs),
        capture_output=True, text=True, check=True)
    frames = {}
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        frames[current].append(lines[i])  # function; the next is file:line
        i += 2
    return frames


def short(name, width=96):
    return name if len(name) <= width else name[:width - 3] + "..."


def print_table(title, counts, total, top):
    print("\n%s (%d samples)" % (title, total))
    print("%8s %7s  %s" % ("samples", "share", "name"))
    for name, n in counts.most_common(top):
        print("%8d %6.2f%%  %s" % (n, 100.0 * n / total, short(name)))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    executable = os.path.realpath(sys.argv[1])
    samples_path = sys.argv[2]
    maps, bias = read_maps(samples_path + ".maps")
    with open(samples_path) as f:
        samples = [tuple(int(x, 16) for x in line.split()) for line in f]
    if not samples:
        sys.exit("no samples in " + samples_path)

    # (key address in the executable, or None; shared object; via libc)
    located = []
    for rip, stackword in samples:
        name = find_map(maps, rip)
        obj = os.path.basename(name) if name else "[unknown]"
        if name is not None and os.path.realpath(name) == executable:
            located.append((rip - bias[name], obj, False))
            continue
        if obj.startswith("libc.so") or obj.startswith("libc-"):
            caller = find_map(maps, stackword)
            if caller is not None and os.path.realpath(caller) == executable:
                # A return address: step back into the call instruction.
                located.append((stackword - bias[caller] - 1, obj, True))
                continue
            located.append((None, obj, True))
            continue
        located.append((None, obj, False))

    frames = symbolize(executable,
                       {a for a, _, _ in located if a is not None})
    per_function = collections.Counter()
    per_inline = collections.Counter()
    per_object = collections.Counter()
    for addr, obj, via_libc in located:
        per_object[obj] += 1
        if addr is None:
            key = "libc (caller unknown)" if via_libc else "[%s]" % obj
            per_function[key] += 1
            per_inline[key] += 1
            continue
        chain = frames.get(addr) or ["??"]
        tag = " [libc]" if via_libc else ""
        per_function[chain[-1] + tag] += 1
        per_inline[chain[0] + tag] += 1

    total = len(samples)
    print_table("Per function", per_function, total, TOP)
    print_table("Per inline frame", per_inline, total, TOP)
    print_table("Per shared object", per_object, total, TOP)


if __name__ == "__main__":
    main()
