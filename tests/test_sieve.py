import math
import random
import tracemalloc

import numpy as np
import pytest

import mobsum.sieve
from mobsum.sieve import (
    _LOG_SCALE,
    _LOG_SLACK,
    _MIN_ROOT,
    MoebiusBlock,
    RangeTooLargeError,
    SieveMemoryError,
    _moebius_values,
    _primes_upto,
    is_prime,
    iter_moebius_blocks,
    moebius_oracle,
    prime_flags,
    sieve_moebius,
    sieve_primes,
)


def test_moebius_first_six():
    block = sieve_moebius(1, 6)
    assert block.values.tolist() == [1, -1, -1, 0, -1, 1]


def test_moebius_single_points():
    assert sieve_moebius(1, 1).values.tolist() == [1]
    # 30 = 2*3*5, three distinct primes
    assert sieve_moebius(30, 30).values.tolist() == [-1]


def test_oracle_examples():
    assert moebius_oracle(1) == 1
    assert moebius_oracle(12) == 0  # 2^2 * 3
    assert moebius_oracle(105) == -1  # 3 * 5 * 7


def test_oracle_domain_error():
    with pytest.raises(ValueError):
        moebius_oracle(0)


def test_sieve_domain_errors():
    with pytest.raises(ValueError):
        sieve_moebius(0, 5)
    with pytest.raises(ValueError):
        sieve_moebius(5, 4)
    with pytest.raises(RangeTooLargeError):
        sieve_moebius(1, 100, block_capacity=10)


def test_primes_examples():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve_primes(1).primes.tolist() == []
    assert len(sieve_primes(100)) == 25


def test_primes_match_trial_division():
    table = sieve_primes(500)
    expected = [n for n in range(2, 501) if is_prime(n)]
    assert table.primes.tolist() == expected


def test_sieve_agrees_with_oracle_exhaustive():
    block = sieve_moebius(1, 10**5)
    for k in range(1, 10**5 + 1):
        assert block.mu(k) == moebius_oracle(k), k


def test_sieve_agrees_with_oracle_random_large():
    rng = random.Random(20260808)
    for _ in range(1000):
        k = rng.randrange(1, 10**9)
        assert sieve_moebius(k, k).mu(k) == moebius_oracle(k), k


def test_block_independence():
    n = 30000
    whole = sieve_moebius(1, n).values
    rng = random.Random(7)
    for _ in range(5):
        cuts = sorted(rng.sample(range(2, n), 6))
        edges = [1] + cuts + [n + 1]
        parts = [sieve_moebius(a, b - 1).values for a, b in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(parts), whole)


def test_iter_blocks_concatenation():
    n = 5000
    whole = sieve_moebius(1, n).values
    parts = [b.values for b in iter_moebius_blocks(1, n, block_size=512)]
    assert np.array_equal(np.concatenate(parts), whole)
    offset = [b.values for b in iter_moebius_blocks(1234, n, block_size=512)]
    assert np.array_equal(np.concatenate(offset), whole[1233:])


def test_oracle_multiplicativity_on_coprime_pairs():
    rng = random.Random(99)
    done = 0
    while done < 200:
        a = rng.randrange(1, 10**4)
        b = rng.randrange(1, 10**4)
        from math import gcd

        if gcd(a, b) != 1:
            continue
        assert moebius_oracle(a) * moebius_oracle(b) == moebius_oracle(a * b)
        done += 1


def test_divisor_sum_property_feeds_identities():
    # sum over divisors of mu is the unit at t = 1 and zero elsewhere
    from mobsum.identities import divisor_sum

    assert divisor_sum(1) == 1
    for t in range(2, 2001):
        assert divisor_sum(t) == 0, t


def test_block_immutable():
    block = sieve_moebius(1, 10)
    with pytest.raises(ValueError):
        block.values[0] = 5


def test_prime_flags_segment():
    flags = prime_flags(90, 110)
    primes = [k for k in range(90, 111) if flags[k - 90]]
    assert primes == [97, 101, 103, 107, 109]


def test_block_mu_accessor_bounds():
    block = sieve_moebius(5, 10)
    assert isinstance(block, MoebiusBlock)
    assert block.mu(7) == -1
    with pytest.raises(IndexError):
        block.mu(4)


# -- the byte-log cofactor test of the mu sieve --------------------------------


def _primorial_omega(limit: int) -> int:
    """The most distinct primes a k < limit can have."""
    product, count = 1, 0
    for p in sieve_primes(100).primes.tolist():
        if product * p >= limit:
            return count
        product *= p
        count += 1
    raise AssertionError("limit beyond the primes below 100")


def test_byte_log_constants_are_sound():
    # the inequality of _moebius_values' docstring, from the module's constants
    omega = _primorial_omega(1 << 63)
    assert omega == 15
    # each a_p is within 1/2 of S log2 p, so with w primes L = S log2 m + d, |d| <= w/2;
    # the lane never wraps below 2^63
    assert _LOG_SCALE * 63 + omega / 2 < 256
    # no cofactor: L >= S e - w/2, an integer, must not fall below S e - slack
    assert omega // 2 <= _LOG_SLACK
    # a prime cofactor c > R >= R0 (m then has w - 1 primes): L < S(e + 1) -
    # S log2 c + (w - 1)/2 must stay below S e - slack
    assert _LOG_SCALE - _LOG_SCALE * math.log2(_MIN_ROOT) + (omega - 1) / 2 <= -_LOG_SLACK


def test_sieve_segment_boundaries_exhaustive():
    # every k within 300 of a power of two up to 2^20, where the threshold steps
    for e in range(1, 21):
        lo, hi = max(1, (1 << e) - 300), (1 << e) + 300
        block = sieve_moebius(lo, hi)
        for k in range(lo, hi + 1):
            assert block.mu(k) == moebius_oracle(k), k


def test_sieve_segment_boundaries_sampled_to_2_40():
    rng = random.Random(20261018)
    for e in range(21, 41):
        lo, hi = (1 << e) - 300, (1 << e) + 300
        block = sieve_moebius(lo, hi)
        ks = [(1 << e) - 1, (1 << e) + 1, *(rng.randrange(lo, hi + 1) for _ in range(4))]
        for k in ks:
            assert block.mu(k) == moebius_oracle(k), k


def test_sieve_single_points_below_minimum_root():
    # isqrt(k) < 80 here, so the sieving primes reach 80 instead
    for k in range(1, 701):
        assert sieve_moebius(k, k).values.tolist() == [moebius_oracle(k)], k


def _split_mu(k: int, primes: np.ndarray) -> tuple[int, int]:
    """(mu of k's part made of ``primes``, the rest of k); the rest is
    meaningless when the part's mu is 0."""
    mu = 1
    for p in primes[k % primes == 0].tolist():
        k //= p
        if k % p == 0:
            return 0, k
        mu = -mu
    return mu, k


def _is_prime_mr(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_sieve_high_omega_near_2_62():
    # the lane nears its largest values here; the kernel is exact for every k
    # with at most one prime factor above its sieving primes, so primes up to
    # 2^16 decide these k
    primes = _primes_upto(1 << 16)
    first = primes[:15].tolist()
    primorial = math.prod(first[:15])  # 47#, 15 primes
    p37 = math.prod(first[:12])
    # the largest primes c that keep 37# c and 31# 41 c below 2^62, both above 2^16
    c1 = next(c for c in range((1 << 62) // p37, 1 << 16, -1) if is_prime(c))
    c2 = next(c for c in range((1 << 62) // (p37 // 37 * 41), 1 << 16, -1) if is_prime(c))
    ks = [
        primorial,
        primorial // 47 * 53,
        primorial // 47 // 43 * 53 * 59,
        primorial // 10 * 53,
        primorial // 14 * 59,
        primorial * 7,
        primorial // 2 * 5,
        p37 * c1,
        p37 // 37 * 41 * c2,
        p37 // 2 * 65537,
        1 << 62,
    ]
    for k in ks:
        assert k <= 1 << 62, k
        part, rest = _split_mu(k, primes)
        if part == 0:
            expected = 0
        else:
            assert rest == 1 or (rest > 1 << 16 and _is_prime_mr(rest)), k
            expected = part if rest == 1 else -part
        assert _moebius_values(k, k, primes).tolist() == [expected], k
    assert _moebius_values(primorial, primorial, primes)[0] == -1


def test_sieve_block_straddling_2_53():
    # one block across 2^53, where float64 stops holding every integer; checked
    # at each k whose part above the sieving primes is 1 or one prime
    primes = _primes_upto(1 << 18)
    lo, hi = (1 << 53) - 200, (1 << 53) + 200
    values = _moebius_values(lo, hi, primes).tolist()
    checked = 0
    for k in range(lo, hi + 1):
        part, rest = _split_mu(k, primes)
        if part == 0:
            assert values[k - lo] == 0, k
        elif rest == 1 or _is_prime_mr(rest):
            assert values[k - lo] == (part if rest == 1 else -part), k
        else:
            continue
        checked += 1
    assert checked > 300


def test_sieve_rejects_ranges_beyond_2_63(monkeypatch):
    # the byte-log test is proved below 2^63; the range is refused before the
    # ~3e9 root primes would be sieved
    def no_roots(limit):
        raise AssertionError(f"root primes up to {limit} requested")

    monkeypatch.setattr(mobsum.sieve, "_primes_upto", no_roots)
    with pytest.raises(ValueError):
        sieve_moebius((1 << 63) - 5, 1 << 63)
    with pytest.raises(ValueError):
        next(iter_moebius_blocks((1 << 63) - 5, 1 << 63))


def test_sieve_block_scratch_memory():
    # an int8 and a uint8 lane per entry; no 8-byte lane
    _primes_upto(1 << 10)
    tracemalloc.start()
    try:
        block = sieve_moebius(1, 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.values.size == 1 << 20
    assert peak < 3 << 20, peak


def test_wheel_blocks_agree_with_oracle():
    # the primes up to 13 come from one pattern of period 30030: blocks
    # starting at every phase of interest, then one holding two whole periods
    for base in (30030 * 3, 30030 * 1234):
        for r in (0, 1, 13, 30029):
            for n in range(1, 41):
                lo = base + r
                block = sieve_moebius(lo, lo + n - 1)
                assert block.values.tolist() == [moebius_oracle(k) for k in range(lo, lo + n)]
    lo, hi = 30030 * 3 - 100, 30030 * 5 + 100
    block = sieve_moebius(lo, hi)
    assert block.values.tolist() == [moebius_oracle(k) for k in range(lo, hi + 1)]


def test_prime_flags_stream_shares_root_primes():
    # a theta stream's chunks each ask for the primes up to isqrt(hi); they
    # share one cache entry per power of two, not one per chunk
    from mobsum.summatory import _prefix_stream, _theta_terms

    hi, chunk = 2 * 10**5, 1 << 12
    _primes_upto.cache_clear()
    chunks = sum(1 for _ in _prefix_stream(hi, 1 << 20, _theta_terms, chunk))
    misses = _primes_upto.cache_info().misses
    assert chunks > 40
    assert misses <= 2 * hi.bit_length() and misses < chunks // 2, misses


def test_sieve_refuses_root_primes_beyond_memory(monkeypatch):
    # the root primes of 2^62, about 2.1 GB of flags and 0.8 GB of primes, are
    # refused before anything is allocated
    monkeypatch.setattr(mobsum.sieve, "_available_bytes", lambda: 1 << 30)
    tracemalloc.start()
    try:
        with pytest.raises(SieveMemoryError, match="bytes"):
            sieve_moebius(2**62, 2**62)
        with pytest.raises(SieveMemoryError):
            next(iter_moebius_blocks(2**62, 2**62 + 10))
        with pytest.raises(SieveMemoryError):
            prime_flags(2**62, 2**62)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
