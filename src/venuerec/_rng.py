"""The seeded random stream: numpy's ``default_rng(entropy)``, in Python.

The train/validation split and coordinate ascent's restarts are the
only random draws in venuerec.  They read the stream numpy's
``default_rng(entropy)`` gives: ``SeedSequence(entropy)`` mixes the
entropy into a pool and seeds a PCG64 generator (O'Neill, 2014), a
128-bit LCG with the XSL-RR output function.  Importing numpy's random
module would cost about 6 MB of memory, enough to set the peak of an
``ablate`` run, and numpy may change its ``Generator`` algorithms
between releases, while its bit generators keep their streams.  The
tests check this module against numpy draw for draw.
"""

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy):
    """The little-endian 32-bit words of a non-negative int, or of each
    int of a list in turn, as ``SeedSequence`` reads them."""
    if isinstance(entropy, int):
        return [entropy >> shift & _MASK32
                for shift in range(0, max(entropy.bit_length(), 1), 32)]
    return [word for item in entropy for word in _words(item)]


def _seed_words(entropy):
    """``SeedSequence(entropy).generate_state(4, uint64)``."""
    words = _words(entropy)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """numpy's ``default_rng(entropy)``: `entropy` is a non-negative int
    or a list of them."""

    def __init__(self, entropy):
        w0, w1, w2, w3 = _seed_words(entropy)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        # pcg64_srandom_r: step from 0, add the seed, step again
        seed = self._inc + (w0 << 64 | w1)
        self._state = (seed * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _next64(self):
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self):
        # each 64-bit draw serves two: the low half, then the high one
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def _interval(self, high):
        """A uniform int in ``[0, high]``: masked 32-bit draws, rejected
        above `high`.  numpy draws 64 bits once `high` passes 2**32 - 1,
        which a permutation of a topic list never reaches."""
        if high == 0:
            return 0
        mask = (1 << high.bit_length()) - 1
        while True:
            value = self._next32() & mask
            if value <= high:
                return value

    def permutation(self, n):
        """``Generator.permutation(n)`` as a list: ``range(n)`` shuffled
        by backward Fisher-Yates."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            out[i], out[j] = out[j], out[i]
        return out

    def random(self, n):
        """``Generator.random(n)`` as a list: n floats in ``[0, 1)``."""
        return [(self._next64() >> 11) * 2.0 ** -53 for _ in range(n)]
