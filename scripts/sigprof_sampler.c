/*
 * A SIGPROF sampling profiler, loaded with LD_PRELOAD by
 * scripts/profile.sh.
 *
 * Every PERIOD_US microseconds of process CPU time ITIMER_PROF raises
 * SIGPROF, and the handler records two words:
 * the interrupted RIP and the word at the interrupted stack pointer.
 * When the sample lands in a leaf function, such as a memset that
 * calloc tail-called, that word is the return address into its caller,
 * which is how profile.sh attributes libc time to the code that called
 * it.  At exit the samples go to $SSP_PROF_OUT as "rip stackword" hex
 * lines, and /proc/self/maps to $SSP_PROF_OUT.maps, so the addresses
 * can be symbolized offline.  Samples past the buffer's capacity are
 * counted and dropped.
 *
 *   cc -O2 -shared -fPIC -o sampler.so scripts/sigprof_sampler.c
 *   SSP_PROF_OUT=prof.txt LD_PRELOAD=./sampler.so PROGRAM ARGS...
 */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#if !defined(__x86_64__)
#error "sigprof_sampler reads x86-64 registers"
#endif

#define MAX_SAMPLES (1u << 20)
/* The kernel delivers ITIMER_PROF at most once per tick, so a shorter
 * period would not sample any more often. */
#define PERIOD_US 1000

static uint64_t (*samples)[2];
static unsigned long next_sample;
static unsigned long dropped;

static void
on_sigprof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    const unsigned long i =
        __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    const uint64_t rsp = (uint64_t)uc->uc_mcontext.gregs[REG_RSP];
    samples[i][0] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    samples[i][1] = *(const uint64_t *)rsp;
}

__attribute__((constructor)) static void
sampler_start(void)
{
    if (getenv("SSP_PROF_OUT") == NULL)
        return;
    samples = mmap(NULL, sizeof(*samples) * MAX_SAMPLES,
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                   0);
    if (samples == MAP_FAILED) {
        perror("sigprof_sampler: mmap");
        samples = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = PERIOD_US;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
sampler_stop(void)
{
    if (samples == NULL)
        return;
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SSP_PROF_OUT");
    FILE *out = fopen(path, "w");
    if (out == NULL) {
        perror(path);
        return;
    }
    unsigned long n = __atomic_load_n(&next_sample, __ATOMIC_RELAXED);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (unsigned long i = 0; i < n; ++i)
        fprintf(out, "%lx %lx\n", (unsigned long)samples[i][0],
                (unsigned long)samples[i][1]);
    fclose(out);
    if (dropped != 0)
        fprintf(stderr, "sigprof_sampler: %lu samples dropped\n", dropped);

    char maps_path[4096];
    snprintf(maps_path, sizeof(maps_path), "%s.maps", path);
    FILE *in = fopen("/proc/self/maps", "r");
    FILE *maps = fopen(maps_path, "w");
    if (in != NULL && maps != NULL) {
        char buf[4096];
        size_t got;
        while ((got = fread(buf, 1, sizeof(buf), in)) > 0)
            fwrite(buf, 1, got, maps);
    }
    if (in != NULL)
        fclose(in);
    if (maps != NULL)
        fclose(maps);
}
