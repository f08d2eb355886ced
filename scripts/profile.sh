#!/usr/bin/env bash
# A sampled profile of one benchmark workload: where the host time of a
# `heroes-benchmark --child` goes, by function, self and inclusive.
#
#   scripts/profile.sh <workload> [seconds] [seed]      (defaults: 8 s, seed 42)
#
# Builds benchmark/ with debug info into target/profile (its own target
# directory, so the ordinary build is not disturbed), preloads a SIGPROF
# sampler that records a backtrace() every 4 ms of CPU time, runs one
# single-threaded child and resolves the samples with `addr2line -f -i`.
# Self time goes to the function whose machine code the sample landed in
# (callees inlined into it included); inclusive time to every function on
# the stack, inlined ones too. Frames outside the executable (libc's
# memcpy and malloc, the vDSO) are one line; a third table charges each
# such sample to the first function of this program that called into
# it, skipping alloc::, core::, std:: and hashbrown:: frames, and a
# fourth classes each by the innermost frame of this program under it:
# alloc::alloc::{alloc,dealloc,realloc,alloc_zeroed} is malloc/free
# (listed again by first caller), slice compare/equal is memcmp,
# copy_nonoverlapping is memcpy, anything else is other. Like
# benchmark/run.sh this builds --offline, not --locked, and rewrites one
# line of benchmark/Cargo.lock: `git checkout benchmark/Cargo.lock` after.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seconds] [seed]}"
seconds="${2:-8}"
seed="${3:-42}"
for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "profile.sh: $tool not installed; skipping"
        exit 0
    fi
done

dir="$PWD/target/profile"
mkdir -p "$dir"
cat >"$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#define MAX_SAMPLES 65536
#define DEPTH 64
static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static volatile int taken;
static unsigned long exe_base, exe_end;
static void on_prof(int sig) {
    (void)sig;
    if (taken < MAX_SAMPLES) { depth[taken] = backtrace(frames[taken], DEPTH); taken++; }
}
static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size; (void)data;
    exe_base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD) {
            unsigned long end = exe_base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
            if (end > exe_end) exe_end = end;
        }
    return 1; /* the executable comes first; stop there */
}
__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    dl_iterate_phdr(first_object, 0);
    struct sigaction sa = {0};
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, 0);
}
__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    FILE *out = fopen("samples.txt", "w");
    if (!out) return;
    /* Frames 0 and 1 are the handler and the signal trampoline. Callers
       are return addresses: one octet back lands inside the call. */
    for (int s = 0; s < taken; s++) {
        for (int f = 2; f < depth[s]; f++) {
            unsigned long pc = (unsigned long)frames[s][f] - (f > 2);
            fprintf(out, "%lx ", pc >= exe_base && pc < exe_end ? pc - exe_base : 0UL);
        }
        fputc('\n', out);
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$dir" >&2
exe="$dir/release/heroes-benchmark"

# The sampler writes samples.txt into the working directory.
(cd "$dir" && LD_PRELOAD="$dir/sampler.so" "$exe" --child --workload "$workload" \
    --seed "$seed" --threads 1 --budget-ms "$((seconds * 1000))" >child.txt)
grep -o 'digest=[0-9a-f]*' "$dir/child.txt" || true

# addr2line -a -f -i prints, per address, the address and then one
# (function, file:line) pair per inlined frame, innermost first; the last
# pair is the function the code was emitted in.
tr ' ' '\n' <"$dir/samples.txt" | grep -v '^0*$' | sort -u |
    addr2line -a -f -i -C -e "$exe" >"$dir/symbols.txt"
: >"$dir/outside.txt"
awk '
    FNR == NR {
        if ($0 ~ /^0x/) { addr = $0; sub(/^0x0*/, "", addr); depth = 0; next }
        if (++depth % 2) funcs[addr] = funcs[addr] (funcs[addr] == "" ? "" : "\t") $0
        next
    }
    NF {
        samples++
        split("", seen)
        for (i = 1; i <= NF; i++) {
            if ($i == "0" && i > 1) continue # the C start-up frames under main
            n = $i == "0" ? 1 : split(funcs[$i], names, "\t")
            if ($i == "0") names[1] = "[outside the executable: libc, vdso]"
            if (i == 1) self[names[n]]++
            for (j = 1; j <= n; j++) if (!(names[j] in seen)) { seen[names[j]] = 1; incl[names[j]]++ }
        }
        # A sample outside the executable is classed by the innermost
        # frame of this program under it (what the program called), and
        # charged to the first frame on its stack that is not library
        # plumbing.
        kind = caller = ""
        for (i = 2; $1 == "0" && i <= NF && caller == ""; i++) {
            if ($i == "0") continue
            n = split(funcs[$i], names, "\t")
            if (kind == "") kind = called(names[1])
            for (j = 1; j <= n; j++) if (names[j] !~ /^<*(alloc|core|std|hashbrown)::|^<[^ :]+ as (alloc|core|std|hashbrown)::|^__rust/) break
            if (j <= n) caller = names[j]
        }
        if ($1 == "0") kinds[kind == "" ? "other" : kind]++
        if (caller != "") outside[caller]++
        if (caller != "" && kind == "malloc/free") by_malloc[caller]++
    }
    function called(f) {
        if (f ~ /^alloc::alloc::(alloc|dealloc|realloc|alloc_zeroed)$/) return "malloc/free"
        if (f ~ /slice::cmp::.*(compare|equal)$/) return "memcmp"
        if (f ~ /copy_nonoverlapping$/) return "memcpy"
        return "other"
    }
    END {
        printf "%d samples, one per 4 ms of CPU time\n", samples
        for (f in incl) printf "%6.1f%% self %6.1f%% inclusive  %s\n", 100 * self[f] / samples, 100 * incl[f] / samples, f
        for (f in outside) printf "%6.1f%%  %s\n", 100 * outside[f] / samples, f >outside_file
        for (f in kinds) printf "%6.1f%%  %s\n", 100 * kinds[f] / samples, f >kinds_file
        for (f in by_malloc) printf "%6.1f%%  %s\n", 100 * by_malloc[f] / samples, f >malloc_file
    }
' outside_file="$dir/outside.txt" kinds_file="$dir/kinds.txt" malloc_file="$dir/malloc.txt" \
    "$dir/symbols.txt" "$dir/samples.txt" >"$dir/report.txt"
set +o pipefail # `head` may close a pipe before `sort` has written all of it
head -1 "$dir/report.txt"
echo "== top 25 by self time"
tail -n +2 "$dir/report.txt" | sort -k1,1 -rn | head -25
echo "== top 25 by inclusive time"
tail -n +2 "$dir/report.txt" | sort -k3,3 -rn | head -25
echo "== [outside the executable] by the first caller in it, alloc/core/std/hashbrown frames skipped (top 25)"
sort -k1,1 -rn "$dir/outside.txt" | head -25
echo "== [outside the executable] by what the program called (innermost frame in it)"
sort -k1,1 -rn "$dir/kinds.txt"
echo "== of it, malloc/free by the first caller, as above (top 25)"
sort -k1,1 -rn "$dir/malloc.txt" | head -25
echo "(all of it: $dir/report.txt, $dir/outside.txt, $dir/kinds.txt, $dir/malloc.txt)"
