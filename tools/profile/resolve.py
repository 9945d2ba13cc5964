#!/usr/bin/env python3
"""Rolls up a sampler.c profile by leaf function and by layer.

    python3 tools/profile/resolve.py prof.txt [--exclude REGEX] [--match REGEX]
                                              [--top N]

Each sample's addresses are mapped through the saved /proc/self/maps to a
file and an ELF address, and named with the file's symbol table (nm), so a
name is always an out-of-line function: code inlined into a caller counts
as the caller.  Return addresses are looked up one byte back, inside the
call instruction.

--exclude drops every sample with a frame whose name matches (for example
the benchmark's host-speed reference loop, 'reference_seconds').  --match
prints the summed leaf share of the functions whose name matches.  Layers
are assigned from the leaf's qualified name (template arguments included,
parameters and return type dropped): "buf" is BufChain/BufStore code and the containers of
their segments, otherwise the first sgfs namespace named decides; a leaf
in libc or libstdc++ outside those is its own layer.  A name nm does not
know prints as "?" with its file.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

# The chain's own code: its members and the containers of its segments.
BUF = r"^sgfs::(BufChain|BufStore|buf_stats|linearize|chain_to_string)\b" \
      r"|^std::(array|vector)<sgfs::BufChain::Segment"
# A leaf's layer is the first sgfs namespace named in it, so a std::
# container or an engine callback goes to the layer of its element or body.
NAMESPACES = {
    "crypto": "crypto", "sim": "engine", "SmallObjectPool": "engine",
    "net": "net", "rpc": "rpc", "xdr": "xdr", "nfs": "nfs", "vfs": "nfs",
    "core": "proxy", "services": "proxy", "fleet": "harness",
    "baselines": "harness", "obs": "harness", "workloads": "harness",
}
LIBS = (("libc", r"/libc[.-]|/ld-linux"),
        ("libstdc++", r"/libstdc\+\+|/libm[.-]|/libgcc"))


def layer_of(qualified_name, path):
    if re.search(BUF, qualified_name):
        return "buf"
    m = re.search(r"sgfs::(\w+)", qualified_name)
    if m:
        return NAMESPACES.get(m.group(1), "common")
    if re.match(r"\(anonymous namespace\)|main$", qualified_name):
        return "harness"  # the benchmark driver's own functions
    return next((l for l, rx in LIBS if re.search(rx, path)), "other")


class Mapping:
    def __init__(self, lo, hi, offset, path):
        self.lo, self.hi, self.offset, self.path = lo, hi, offset, path


class Symbols:
    """One file's text symbols, sorted by address."""

    def __init__(self, path):
        self.loads = []  # (p_offset, p_vaddr, p_filesz)
        out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                             text=True).stdout
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.loads.append((int(f[1], 16), int(f[2], 16),
                                   int(f[4], 16)))
        syms = {}
        for flag in ([], ["-D"]):
            out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only"]
                                 + flag + [path], capture_output=True,
                                 text=True).stdout
            for line in out.splitlines():
                m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWiI]) (.*)",
                             line)
                if m:
                    addr = int(m.group(1), 16)
                    size = int(m.group(2), 16) if m.group(2) else 0
                    if addr not in syms or (size and not syms[addr][0]):
                        syms[addr] = (size, m.group(4))
        self.addrs = sorted(syms)
        self.entries = [syms[a] for a in self.addrs]

    def vaddr(self, file_offset):
        for off, va, size in self.loads:
            if off <= file_offset < off + size:
                return file_offset - off + va
        return file_offset

    def name(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0:
            return None
        size, name = self.entries[i]
        if size and vaddr >= self.addrs[i] + size:
            return None
        return name


def load(path):
    maps, samples, dropped = [], [], 0
    with open(path) as f:
        in_samples = False
        for line in f:
            if in_samples:
                samples.append([int(x, 16) for x in line.split()])
            elif line.startswith("samples"):
                dropped = int(line.split()[-1])
                in_samples = True
            else:
                f_ = line.split(None, 5)
                if len(f_) == 6 and "x" in f_[1] and f_[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in f_[0].split("-"))
                    maps.append(Mapping(lo, hi, int(f_[2], 16),
                                        f_[5].strip()))
    maps.sort(key=lambda m: m.lo)
    return maps, samples, dropped


def qualified(name):
    """The function's own name: template arguments kept, the parameter list
    and a template's leading return type dropped."""
    angle = paren = start = 0
    for i, c in enumerate(name):
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "(":
            top = angle == 0 and paren == 0
            if top and not name[:i].endswith("operator") \
                    and not name.startswith("(anonymous namespace)", i):
                return name[start:i]
            paren += 1
        elif c == ")":
            paren -= 1
        elif c == " " and angle == 0 and paren == 0 \
                and not name[:i].endswith("operator"):
            start = i + 1
    return name[start:]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--exclude", help="drop samples with a frame matching")
    ap.add_argument("--match", help="sum the leaf share of matching names")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, samples, dropped = load(args.profile)
    starts = [m.lo for m in maps]
    tables = {}
    cache = {}

    def resolve(addr):
        if addr in cache:
            return cache[addr]
        i = bisect.bisect_right(starts, addr) - 1
        out = ("?", "?")
        if i >= 0 and addr < maps[i].hi:
            m = maps[i]
            if m.path not in tables:
                tables[m.path] = Symbols(m.path)
            syms = tables[m.path]
            out = (syms.name(syms.vaddr(addr - m.lo + m.offset)) or "?",
                   m.path)
        cache[addr] = out
        return out

    exclude = re.compile(args.exclude) if args.exclude else None
    leaves = collections.Counter()
    layers = collections.Counter()
    kept = 0
    for s in samples:
        frames = [resolve(s[0])] + [resolve(a - 1) for a in s[1:]]
        if exclude and any(exclude.search(n) for n, _ in frames):
            continue
        kept += 1
        name, path = frames[0]
        leaves[(name, path)] += 1
        layers[layer_of(qualified(name), path)] += 1

    print("samples: %d kept of %d (%d dropped by the sampler)"
          % (kept, len(samples), dropped))
    if not kept:
        return 1
    print("\nlayer            share")
    for layer, n in layers.most_common():
        print("%-14s %6.1f%%" % (layer, 100.0 * n / kept))
    print("\nleaf function (top %d)" % args.top)
    for (name, path), n in leaves.most_common(args.top):
        print("%6.2f%%  %s  [%s]" % (100.0 * n / kept, name,
                                    path.rsplit("/", 1)[-1]))
    if args.match:
        rx = re.compile(args.match)
        hits = [(k, n) for k, n in leaves.items() if rx.search(qualified(k[0]))]
        total = sum(n for _, n in hits)
        print("\nleaf share matching /%s/: %.1f%% (%d samples, %d functions)"
              % (args.match, 100.0 * total / kept, total, len(hits)))
        for (name, _), n in sorted(hits, key=lambda h: -h[1])[:args.top]:
            print("%6.2f%%  %s" % (100.0 * n / kept, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
