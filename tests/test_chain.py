"""Pointer-chase chain generation and validation."""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from memchar import chain as chain_mod
from memchar.chain import ChainError, chain_spec, generate_chain
from oracles import ChainReport, Xorshift64, sattolo_py, verify_chain


class TestGenerate:
    def test_single_element_points_to_itself(self):
        c = generate_chain(512, 512, seed=1)
        assert c.element_count == 1
        assert list(c.successors) == [0]

    def test_one_mibibyte_512_alignment(self):
        c = generate_chain(1 << 20, 512, seed=42)
        assert c.element_count == 2048
        report = verify_chain(c)
        assert report.ok
        assert report.cycle_length == 2048
        assert report.first_revisit_index == 2048

    def test_64_byte_alignment_for_l3(self):
        c = generate_chain(1 << 16, 64, seed=3)
        assert c.element_count == 1024
        assert verify_chain(c).ok

    def test_determinism_is_byte_exact(self):
        a = generate_chain(1 << 18, 512, seed=99)
        b = generate_chain(1 << 18, 512, seed=99)
        assert a.successors.tobytes() == b.successors.tobytes()
        c = generate_chain(1 << 18, 512, seed=100)
        assert a.successors.tobytes() != c.successors.tobytes()

    def test_alignment_must_be_pow2_and_at_least_64(self):
        with pytest.raises(ChainError):
            generate_chain(4096, 48)
        with pytest.raises(ChainError):
            generate_chain(4096, 96)
        with pytest.raises(ChainError):
            generate_chain(256, 512)

    def test_total_bytes_invariant(self):
        c = generate_chain(8192, 128, seed=5)
        assert c.total_bytes == 8192 == c.element_count * c.stride_alignment

    def test_offsets_are_aligned(self):
        c = generate_chain(32768, 256, seed=8)
        assert all(s * c.stride_alignment % 256 == 0 for s in c.successors)


class TestSpec:
    def test_equal_specs_are_equal_hash_equal_and_key_dicts(self):
        a = chain_spec(1 << 16, 512, seed=4, huge_pages=False)
        b = chain_spec(1 << 16, 512, seed=4, huge_pages=False)
        assert a == b and hash(a) == hash(b)
        # Building one table changes neither equality nor the hash.
        c = generate_chain(1 << 16, 512, seed=4, huge_pages=False)
        assert c == a and hash(c) == hash(a)
        regions = {a: "region"}
        assert regions[b] == "region" and regions[c] == "region"
        assert chain_spec(1 << 16, 512, seed=5, huge_pages=False) not in regions
        assert chain_spec(1 << 16, 512, seed=4, huge_pages=True) not in regions

    def test_spec_validates_like_generate(self):
        for total, align in ((4096, 48), (4096, 96), (256, 512), (4096 + 64, 128)):
            with pytest.raises(ChainError):
                chain_spec(total, align)
        assert chain_spec(8192, 128).element_count == 64

    def test_successors_built_once_on_first_access(self, monkeypatch):
        calls = []
        sattolo = chain_mod._sattolo

        def counting(n, seed):
            calls.append((n, seed))
            return sattolo(n, seed)

        monkeypatch.setattr(chain_mod, "_sattolo", counting)
        spec = chain_spec(1 << 14, 512, seed=21)
        assert calls == []
        first = spec.successors
        assert spec.successors is first
        assert verify_chain(spec).ok
        assert calls == [(32, 21)]
        assert first.tobytes() == generate_chain(1 << 14, 512, seed=21).successors.tobytes()
        assert len(calls) == 2  # generate_chain builds its own spec's table, eagerly


SHUFFLE_SEEDS = (0, 1, 7, -3, 2**63 + 5, 2**64 - 1)


@pytest.fixture
def lib():
    from memchar import native

    try:
        return native.load_kernels()
    except native.BackendUnavailable as exc:
        pytest.skip(f"native kernels unavailable: {exc}")


class TestShuffle:
    def test_c_table_is_byte_identical_to_the_reference(self, lib):
        for n in (1, 2, 3, 7, 48, 2048, 107520):
            for seed in SHUFFLE_SEEDS:
                assert (
                    chain_mod._sattolo(n, seed).tobytes()
                    == sattolo_py(n, seed).tobytes()
                ), (n, seed)
        # One seed at 1 Mi elements; the reference takes about a second.
        assert (
            chain_mod._sattolo(1 << 20, 7).tobytes()
            == sattolo_py(1 << 20, 7).tobytes()
        )

    def test_generate_chain_needs_the_kernels(self, monkeypatch):
        from memchar import native

        refused = []

        def unavailable():
            refused.append(True)
            raise native.BackendUnavailable("no C compiler found")

        monkeypatch.setattr(native, "load_kernels", unavailable)
        with pytest.raises(native.BackendUnavailable, match="no C compiler found"):
            generate_chain(1 << 16, 64, seed=13)
        assert refused == [True]


class TestVerify:
    def test_corrupted_pointer_detected(self):
        c = generate_chain(1 << 14, 512, seed=21)
        succ = c.successors
        # Route the second element straight back to the start: the walk
        # revisits element 0 at step 2 instead of step n.
        succ[succ[0]] = 0
        report = verify_chain(c)
        assert not report.ok
        assert report.first_revisit_index == 2
        assert report.first_revisit_index < c.element_count

    def test_out_of_range_counts_as_violation(self):
        c = generate_chain(4096, 512, seed=1)
        c.successors[3] = 10_000
        assert verify_chain(c).alignment_violations == 1

    @given(
        exp=st.integers(min_value=9, max_value=17),
        align=st.sampled_from([64, 128, 512]),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_cycle_property(self, exp, align, seed):
        c = generate_chain(2**exp, align, seed=seed)
        report = verify_chain(c)
        assert report.ok
        assert report.cycle_length == c.element_count


def chain_with(successors: list[int]):
    """A 64-byte-aligned chain whose successor table is ``successors``, set
    in place of the table its spec would build (no shuffle runs)."""
    c = chain_spec(64 * len(successors), 64)
    c.__dict__["successors"] = array("q", successors)
    return c


class TestVerifyInC:
    """``verify_chain`` walks in C; ``verify_chain_py`` is the reference."""

    def test_c_report_equals_the_reference(self, lib):
        chains = [
            generate_chain(64 * n, 64, seed=s) for n in (1, 2, 3, 1000, 1 << 16) for s in (0, 7)
        ]
        chains += [
            chain_with([0, 2, 3, 1]),  # self-loop at the start
            chain_with([1, 2, 2, 0]),  # self-loop further on
            chain_with([1, 0, 3, 2]),  # 2-cycle
            chain_with([1, 2, 3, 4, 2, 0]),  # rho: tail 0-1, cycle 2-3-4
            chain_with([1, 6, 3, -1, 0, 2]),  # two entries out of range
            chain_with([1, 2, 3, 2**62]),
        ]
        for c in chains:
            assert verify_chain(c) == oracles.verify_chain_py(c), list(c.successors)[:8]
        assert verify_chain(chains[-3]) == ChainReport(6, 3, 5, 0)
        assert verify_chain(chains[-2]).alignment_violations == 2

    def test_reference_is_the_fallback_without_kernels(self, monkeypatch):
        from memchar import native

        reference = oracles.verify_chain_py
        walked = []

        def unavailable():
            raise native.BackendUnavailable("no C compiler found")

        def counting(buffer):
            walked.append(buffer.element_count)
            return reference(buffer)

        monkeypatch.setattr(native, "load_kernels", unavailable)
        monkeypatch.setattr(oracles, "verify_chain_py", counting)
        c = chain_with([1, 2, 3, 4, 2, 0])
        assert verify_chain(c) == reference(c)
        assert walked == [6]


class TestGenerator:
    def test_formulas_match_published_definitions(self):
        mask = (1 << 64) - 1
        # splitmix64 seeding, evaluated by hand:
        z = (1 + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        state = z ^ (z >> 31)
        rng = Xorshift64(1)
        assert rng.state == state
        # one xorshift64 step: s ^= s<<13; s ^= s>>7; s ^= s<<17
        s = state
        s = (s ^ (s << 13)) & mask
        s ^= s >> 7
        s = (s ^ (s << 17)) & mask
        assert rng.next() == s

    def test_zero_seed_is_remapped(self):
        rng = Xorshift64(0)
        assert rng.state != 0
        assert rng.next() != 0

    def test_cycle_distribution_covers_all_cycles(self):
        # Sattolo property on 5 elements: all (5-1)! = 24 single cycles
        # appear, with frequencies within 5x of each other.
        counts = {}
        seeds = 3000
        for seed in range(seeds):
            c = generate_chain(5 * 64, 64, seed=seed)
            counts.setdefault(tuple(c.successors), 0)
            counts[tuple(c.successors)] += 1
        assert len(counts) == math.factorial(4)
        assert max(counts.values()) <= 5 * min(counts.values())
