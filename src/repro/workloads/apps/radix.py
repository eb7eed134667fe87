"""radix: parallel integer radix sort (SPLASH-2).

Paper input: 1M integers, radix 1024.  Scaled: 128K integers, radix 256,
one digit pass (the paper's key/page-cache *ratio* is what matters: the
permutation's footprint per node must exceed the page-cache frames).

Sharing behaviour preserved: the permutation (scatter) phase is an
all-to-all in which every processor "marches through a large number of
remote pages writing a small number of blocks" (paper, Section 5.1) —
capacity misses are spread almost uniformly across pages (the flat radix
curve in Figure 5), so R-NUMA's per-page counters sit right at the
threshold and the page cache could not hold the pages anyway.  The
destination array alone spans ~112 remote pages per node versus 80
page-cache frames, so pure S-COMA takes an allocation storm and loses to
CC-NUMA by a large factor (Figure 6).
"""

from __future__ import annotations

from repro.common.addressing import AddressSpace
from repro.common.params import MachineParams
from repro.workloads.base import Program, TraceBuilder, scaled
from repro.workloads.layout import Layout

KEY_BYTES = 4
RADIX = 256

PAPER_INPUT = "1M integers, radix 1024"

# NumPy bounds a 32-bit draw by Lemire's multiply-shift (2019), which
# redraws while the product's low word is below (2**32 - RADIX) % RADIX.
# For a power of two that threshold is 0, so a key is just the draw's
# top log2(RADIX) bits.  Pin it so a new RADIX cannot silently change
# the keys.
assert RADIX > 0 and RADIX & (RADIX - 1) == 0, (
    "the key stream assumes a power-of-two radix"
)
_KEY_SHIFT = 32 - (RADIX.bit_length() - 1)

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> list[int]:
    """NumPy's ``SeedSequence(seed).generate_state(4, np.uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _M32]  # little-endian 32-bit words
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    # SeedSequence's 32-bit hash: its constant steps by ``mult`` on
    # every call.  The pool is mixed with one pair of constants and
    # read out with another.
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, mult = 0x8B51F9DD, 0x58F38DED
    words = [hashmix(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _digits(seed: int, n: int) -> list[int]:
    """NumPy's ``default_rng(seed).integers(0, RADIX, n, dtype=np.int64)``.

    PCG64 (O'Neill 2014), seeded through SeedSequence.  Each 64-bit draw
    is two 32-bit halves, low half first, and each half gives one key.
    """
    v0, v1, v2, v3 = _seed_sequence(seed)
    inc = ((v2 << 64 | v3) << 1 | 1) & _M128
    state = ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _M128
    digits = []
    for _ in range((n + 1) // 2):
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64  # XSL-RR output
        digits.append(x >> _KEY_SHIFT & (RADIX - 1))
        digits.append(x >> 32 + _KEY_SHIFT)
    del digits[n:]
    return digits


def _stable_ranks(digits: list[int]) -> list[int]:
    """Each key's place in a stable sort by digit (the inverse of
    ``argsort(kind="stable")``): the counting pass of a radix sort."""
    counts = [0] * RADIX
    for digit in digits:
        counts[digit] += 1
    starts, total = [], 0
    for count in counts:
        starts.append(total)
        total += count
    ranks = []
    for digit in digits:
        ranks.append(starts[digit])
        starts[digit] += 1
    return ranks


def build(
    machine: MachineParams,
    space: AddressSpace,
    scale: float = 1.0,
    seed: int = 99,
) -> Program:
    cpus = machine.total_cpus
    n = scaled(100352, scale, cpus * 512)
    n -= n % cpus
    per_cpu = n // cpus
    keys_per_block = space.block_size // KEY_BYTES

    # The keys are NumPy's seeded stream, ported exactly: every frozen
    # radix result was generated from it.
    digits = _digits(seed, n)

    layout = Layout(space)
    src = layout.region("keys", n * KEY_BYTES)
    dst = layout.region("sorted", n * KEY_BYTES)
    hist = layout.region("histogram", cpus * RADIX * KEY_BYTES)
    tb = TraceBuilder(machine)

    for cpu in range(cpus):
        lo = cpu * per_cpu
        for region in (src, dst):
            tb.first_touch(
                cpu,
                (
                    region.addr(i * KEY_BYTES)
                    for i in range(lo, lo + per_cpu, keys_per_block)
                ),
            )
        tb.first_touch(cpu, [hist.addr(cpu * RADIX * KEY_BYTES)])
    tb.barrier()

    # Histogram: each CPU scans its own keys, writes its own slice.
    for cpu in range(cpus):
        lo = cpu * per_cpu
        for i in range(lo, lo + per_cpu, keys_per_block):
            tb.read(cpu, src.addr(i * KEY_BYTES), think=3)
        base = cpu * RADIX * KEY_BYTES
        for off in range(0, RADIX * KEY_BYTES, space.block_size):
            tb.write(cpu, hist.addr(base + off), think=2)
    tb.barrier()

    # Prefix: every CPU reads every other CPU's histogram slice.
    for cpu in range(cpus):
        for other in range(cpus):
            base = other * RADIX * KEY_BYTES
            for off in range(0, RADIX * KEY_BYTES, space.block_size * 4):
                tb.read(cpu, hist.addr(base + off), think=2)
    tb.barrier()

    # Stable global ranks: bucket-major, then source order.
    ranks = _stable_ranks(digits)

    # Permutation: sequential source reads, scattered remote writes.
    for cpu in range(cpus):
        lo = cpu * per_cpu
        last_block = -1
        for i in range(lo, lo + per_cpu):
            blk = i // keys_per_block
            if blk != last_block:
                tb.read(cpu, src.addr(blk * space.block_size), think=2)
                last_block = blk
            tb.write(cpu, dst.addr(ranks[i] * KEY_BYTES), think=2)
    tb.barrier()

    return tb.build(
        "radix",
        description="radix sort: histogram, prefix, all-to-all permutation",
        paper_input=PAPER_INPUT,
        scaled_input=f"{n} integers, radix {RADIX}, 1 pass",
        keys=n,
    )
