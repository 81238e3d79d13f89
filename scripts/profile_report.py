#!/usr/bin/env python3
"""Tables from the samples scripts/sigprof_sampler.c wrote.

Usage: profile_report.py EXECUTABLE SAMPLES

SAMPLES holds one "rip stackword [return...]" line of hex words per
sample, the return addresses (if any) from a frame-pointer walk;
SAMPLES.maps is the sampled process's /proc/self/maps.  Prints the TOP
rows of five tables of sample counts, then a sixth with one row per
simulator layer:

  - per function: the out-of-line function a sample's RIP is in;
  - per function, inclusive: every function named by the sample's
    inline frames or by those of its recorded return addresses, each
    counted once per sample, so a function's row includes the time of
    everything it called that was inlined into it or recorded under it
    (the shares add up to more than 100 %);
  - per inline frame: the innermost function inlined at that RIP;
  - per source line: the file:line of that innermost frame, relative to
    the repository root when under it;
  - per shared object: the mapped file the RIP is in;
  - per layer: the first layer in LAYERS whose classes the innermost
    inline frame names, going outward frame by frame.  A frame names a
    class in its qualified name or template arguments, not in its
    parameter list, so an out-of-line std::_Hashtable frame over
    SharerIndex::Masks is the sharer index's.  When no frame at the
    sample names a layer, the recorded return addresses are tried in
    turn, callers before their callers, each with its inline frames,
    so an out-of-line container function goes to the layer that called
    it (this needs -fno-omit-frame-pointer, which scripts/profile.sh
    builds with).  A sample none of whose frames names a layer is
    "other".

EXECUTABLE must carry debug info (-g).  A sample in libc is attributed to
its caller: the word at the stack pointer, which is the return address
when libc was sampled in a leaf function (memset, memcpy, or calloc's
tail-called memset).  Such rows end in " [libc]".  When that word does
not point into EXECUTABLE, the sample counts as "libc (caller unknown)".
"""

import collections
import os
import re
import subprocess
import sys

ET_EXEC = 2
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
# Rows printed per table.
TOP = 30
# Host layers of the per-layer table: (row, classes or functions).
LAYERS = [
    ("vm", ["Tlb", "PageTable"]),
    ("caches", ["Cache", "CacheHierarchy"]),
    ("sharer index", ["SharerIndex"]),
    ("directory", ["DirectoryCoherence", "MeshGeometry",
                   "BroadcastCoherence", "CoherenceModel"]),
    ("memory", ["PhysMem", "MemoryBus", "MemTimingModel",
                "MemChannelGroup"]),
    ("conflicts", ["ConflictManager", "LineSet"]),
    ("SSP engine/NVRAM", ["SspEngine", "SspSystem", "WriteSetBuffer",
                          "SspCache", "MemController", "Consolidator",
                          "FreePagePool"]),
    ("baselines", ["BaselineBase", "UndoLogBackend", "RedoLogBackend",
                   "ShadowPagingBackend", "PersistLog"]),
    ("workloads", ["Workload", "TxHeap", "PersistAlloc", "BTreeWorkload",
                   "HashWorkload", "KvStoreWorkload", "RbTreeWorkload",
                   "SpsWorkload", "VacationWorkload", "KeyGenerator",
                   "ZipfGenerator"]),
    ("bench probe", ["probeSeconds"]),
]
LAYER_RES = [(row, re.compile(r"\b(?:%s)\b" % "|".join(names)))
             for row, names in LAYERS]


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


def source_line(location):
    """addr2line's "file:line (discriminator N)", without the
    discriminator and with the file relative to the repository root
    when it is under it."""
    location = re.sub(r" \(discriminator \d+\)$", "", location)
    path, sep, line = location.rpartition(":")
    if not sep or not os.path.isabs(path):
        return location
    path = os.path.normpath(path)
    if path.startswith(REPO_ROOT + os.sep):
        path = path[len(REPO_ROOT) + 1:]
    return path + ":" + line


def symbolize(executable, addrs):
    """addr -> inline frames, innermost first, as (function, file:line)
    pairs, via addr2line -f -C -i."""
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
        frames[current].append((lines[i], source_line(lines[i + 1])))
        i += 2
    return frames


def without_parameters(function):
    """FUNCTION without its trailing parameter list and qualifiers, so
    that only its qualified name and template arguments remain."""
    depth = 0
    for i in range(function.rfind(")"), -1, -1):
        if function[i] == ")":
            depth += 1
        elif function[i] == "(":
            depth -= 1
            if depth == 0:
                return function[:i]
    return function


def layer_of(chain):
    """The LAYERS row of the innermost inline frame naming a layer."""
    for function, _ in chain:
        name = without_parameters(function)
        for row, pattern in LAYER_RES:
            if pattern.search(name):
                return row
    return "other"


def short(name, width=96):
    return name if len(name) <= width else name[:width - 3] + "..."


def print_table(title, counts, total, top):
    print("\n%s (%d samples)" % (title, total))
    print("%8s %7s  %s" % ("samples", "share", "name"))
    for name, n in counts.most_common(top):
        print("%8d %6.2f%%  %s" % (n, 100.0 * n / total, short(name)))


def print_layers(counts, total):
    """Every LAYERS row in declared order, then "other"."""
    print("\nPer layer (%d samples)" % total)
    print("%8s %7s  %s" % ("samples", "share", "layer"))
    for row in [row for row, _ in LAYERS] + ["other"]:
        n = counts[row]
        print("%8d %6.2f%%  %s" % (n, 100.0 * n / total, row))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    executable = os.path.realpath(sys.argv[1])
    samples_path = sys.argv[2]
    maps, bias = read_maps(samples_path + ".maps")
    with open(samples_path) as f:
        samples = [[int(x, 16) for x in line.split()] for line in f]
    if not samples:
        sys.exit("no samples in " + samples_path)

    def in_executable(addr):
        """ADDR's ELF vaddr when it points into EXECUTABLE, else None."""
        name = find_map(maps, addr)
        if name is not None and os.path.realpath(name) == executable:
            return addr - bias[name]
        return None

    # Caller addresses per sample: each return address, stepped back
    # into its call instruction, when it points into EXECUTABLE.
    callers = [[a - 1 for a in map(in_executable, returns) if a]
               for _, _, *returns in samples]
    # (key address in the executable, or None; shared object; via libc)
    located = []
    for rip, stackword, *_ in samples:
        name = find_map(maps, rip)
        obj = os.path.basename(name) if name else "[unknown]"
        addr = in_executable(rip)
        if addr is not None:
            located.append((addr, obj, False))
        elif obj.startswith("libc.so") or obj.startswith("libc-"):
            # The stack word as a return address: step back into the
            # call instruction.
            caller = in_executable(stackword)
            located.append((None if caller is None else caller - 1, obj,
                            True))
        else:
            located.append((None, obj, False))

    frames = symbolize(executable,
                       {a for a, _, _ in located if a is not None} |
                       {a for chain in callers for a in chain})
    per_function = collections.Counter()
    per_inclusive = collections.Counter()
    per_inline = collections.Counter()
    per_line = collections.Counter()
    per_object = collections.Counter()
    per_layer = collections.Counter()
    for (addr, obj, via_libc), returns in zip(located, callers):
        per_object[obj] += 1
        layer = "other"
        for a in ([] if addr is None else [addr]) + returns:
            layer = layer_of(frames.get(a) or [])
            if layer != "other":
                break
        per_layer[layer] += 1
        per_inclusive.update({
            function
            for a in ([] if addr is None else [addr]) + returns
            for function, _ in (frames.get(a) or []) if function != "??"})
        if addr is None:
            key = "libc (caller unknown)" if via_libc else "[%s]" % obj
            per_function[key] += 1
            per_inline[key] += 1
            per_line[key] += 1
            continue
        chain = frames.get(addr) or [("??", "??:0")]
        tag = " [libc]" if via_libc else ""
        per_function[chain[-1][0] + tag] += 1
        per_inline[chain[0][0] + tag] += 1
        per_line[chain[0][1] + tag] += 1

    total = len(samples)
    print_table("Per function", per_function, total, TOP)
    print_table("Per function, inclusive", per_inclusive, total, TOP)
    print_table("Per inline frame", per_inline, total, TOP)
    print_table("Per source line", per_line, total, TOP)
    print_table("Per shared object", per_object, total, TOP)
    print_layers(per_layer, total)


if __name__ == "__main__":
    main()
