"""gl2rep.z_tables, the one builder of the z-tables, against the UniPoly
bodies it replaced (scheme_reference), bit for bit in the float lane and
Fraction for Fraction in the exact one; the stack against its S = 1 reads;
and the pipeline building one stack per command.
"""

from fractions import Fraction

import numpy as np
import pytest

from gaudinlab import gl2rep
from gaudinlab.cli import _sample_z, cmd_spectrum, cmd_verify
from gaudinlab.gaudin import GaudinFrame
from gaudinlab.gl2rep import ProblemInstance, ZTables, sh_quotient, z_tables
from gaudinlab.numcore import to_float_array
from gaudinlab.opscheme import dh_matrices, dh_stack

import scheme_reference
from conftest import LADDER

ARRAYS = ("M0", "M", "quo", "rem", "partial_fractions", "marked_exponents")
POLYS = ("A", "B", "A_s", "W", "den", "extra")

# the ladder rungs, then n = 2, l = 0, lt <= l, a zero weight (extra is not
# 1) and m = 0 at a point
CASES = [(m, l) for m, l, _ in LADDER] + \
    [((2, 1), 1), ((2, 1), 0), ((1, 1, 1), 2), ((2, 0, 1), 1), ((1, 0, 1, 2), 2), ((0, 0, 3), 1)]


def reference(inst) -> dict:
    """Every table of inst from the UniPoly reference bodies, polynomials as
    coefficient lists and A_s as one row per s."""
    A, B, A_s = scheme_reference.zpolys(inst)
    W, den, extra = scheme_reference.kernel_pair_polys(inst)
    M0, M = scheme_reference.dh_blocks(inst)
    out = {"A": A, "B": B, "A_s": A_s, "W": W, "den": den, "extra": extra, "M0": M0, "M": M,
           "partial_fractions": scheme_reference.partial_fractions(inst),
           "marked_exponents": scheme_reference.marked_exponents(inst)}
    if inst.ltilde > inst.l:
        out["quo"], out["rem"] = scheme_reference.kernel_pair_maps(inst)
    return out


def padded(value, shape, exact):
    """A reference table as an array of the stack's shape: a polynomial's
    trimmed coefficients padded with zeros, as UniPoly leaves them."""
    if isinstance(value, scheme_reference.UniPoly):
        value = [value]
    if isinstance(value, tuple) and isinstance(value[0], scheme_reference.UniPoly):
        value = list(value)
    if isinstance(value, list):
        rows = [list(p.coeffs) + [0] * (shape[-1] - len(p.coeffs)) for p in value]
        value = rows[0] if len(shape) == 1 else rows
    return np.array(value, dtype=object if exact else complex).reshape(shape)


def assert_same(got, want, exact, what):
    assert got.shape == want.shape, what
    if exact:
        assert all(type(x) is Fraction and x == y for x, y in zip(got.flat, want.flat)), what
    else:
        assert got.dtype == complex and got.tobytes() == want.tobytes(), what


def verify_draws(m, l, samples=10):
    """The float instances cmd_verify draws for (m, l) at seed 0."""
    rng = np.random.default_rng(0)
    return [ProblemInstance(m, l, _sample_z(rng, len(m), "real" if k % 2 == 0 else "complex"))
            for k in range(samples)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_float_stack_is_the_reference_and_its_single_reads(case):
    m, l = CASES[case]
    insts = verify_draws(m, l)
    stack = z_tables(insts)
    assert len(stack) == len(insts) and not stack.exact
    for i, inst in enumerate(insts):
        want, one = reference(inst), inst.tables
        for name in POLYS + ARRAYS:
            got = getattr(stack, name)
            if got is None:
                assert name not in want and getattr(one, name) is None
                continue
            assert not got.flags.writeable
            assert_same(got[i], padded(want[name], got.shape[1:], False), False, (name, i))
            assert_same(getattr(one, name)[0], got[i], False, (name, i))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_ladder_z_in_both_lanes(case):
    # the rungs' own z (0..n-1 off the ladder): exact Fractions, and the float
    # twins bit for bit, each lane a stack of the instance and a shifted one
    m, l = CASES[case]
    z = LADDER[case][2] if case < len(LADDER) else range(len(m))
    exact = [ProblemInstance(m, l, list(z)),
             ProblemInstance(m, l, [Fraction(v) + Fraction(1, 3) for v in z])]
    for insts in (exact, [f.to_float() for f in exact]):
        stack, lane = z_tables(insts), insts[0].exact
        assert stack.exact == lane
        for i, inst in enumerate(insts):
            want = reference(inst)
            for name in POLYS + ARRAYS:
                got = getattr(stack, name)
                if got is not None:
                    assert_same(got[i], padded(want[name], got.shape[1:], lane), lane, (name, i))
                    assert_same(getattr(inst.tables, name)[0], got[i], lane, (name, i))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_dh_stack_is_the_entrywise_sum(case):
    # D_h summed on the diagonals where M[s] holds A_s equals
    # M0 + sum_s h_s M[s] summed entry by entry over every M[s], bit for bit
    m, l = CASES[case]
    insts = verify_draws(m, l, 4)
    stack, rng = z_tables(insts), np.random.default_rng(case)
    sample = np.repeat(np.arange(len(insts)), 5)
    H = rng.normal(size=(len(sample), len(m))) + 1j * rng.normal(size=(len(sample), len(m)))
    H[::4] = H[::4].real
    want = stack.M0[sample]
    for s in range(len(m)):
        want = want + H[:, s, None, None] * stack.M[sample, s]
    assert dh_stack(stack, sample, H).tobytes() == want.tobytes()
    f = insts[0]
    assert dh_matrices(f, H[:3]).tobytes() == dh_stack(f.tables, [0] * 3, H[:3]).tobytes()


def test_huge_float_z_powers_by_products():
    # complex ** raises OverflowError where a product is inf: at z about
    # 1e200 apart the tables still build, z_s ** j binary-powered
    f = ProblemInstance((1,) * 4, 2, [0, 1e200, 2e200, 3e200])
    with pytest.raises(OverflowError):
        f.z[1] ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        tables, (A, B, A_s) = f.tables, scheme_reference.zpolys(f)
    for name, want in (("A", A), ("B", B), ("A_s", A_s)):
        got = getattr(tables, name)[0]
        assert_same(got, padded(want, got.shape, False), False, name)
    one = 1 + 0j
    for s, zs in enumerate(f.z):
        d = one
        for r, zr in enumerate(f.z):
            if r != s:
                d = d * (zs - zr)
        want = np.array([one / d, zs * one / d, zs * zs * one / d])
        assert tables.partial_fractions[0, s].tobytes() == want.tobytes()


@pytest.mark.parametrize("j", [2, 3])
def test_power_squares_no_further_than_j(j):
    # at |z| about 1e100, z ** j is finite and one more square of z ** 2
    # would overflow: none is formed
    Z = np.array([[1e100 + 0j, -2e100 + 1e99j]], dtype=object)
    with np.errstate(over="raise"):
        got = gl2rep._power(Z, j, False)
    assert got.tolist() == [[z ** j for z in Z[0]]]


def test_repeated_instances_are_built_once(monkeypatch):
    builds = []
    real = gl2rep._build_tables
    monkeypatch.setattr(gl2rep, "_build_tables", lambda insts: builds.append(insts) or real(insts))
    a, b = verify_draws((1,) * 4, 2, 2)
    stack = z_tables([a, b, a, a])
    assert [len(insts) for insts in builds] == [2]
    assert stack.M0[2].tobytes() == stack.M0[0].tobytes() == a.tables.M0[0].tobytes()
    assert [len(insts) for insts in builds] == [2, 1]
    assert z_tables([a, a]).A.tobytes() == np.stack([a.tables.A[0]] * 2).tobytes()
    assert len(builds) == 2
    taken = stack.take([1, 0])
    assert isinstance(taken, ZTables) and taken.M.tobytes() == stack.M[[1, 0]].tobytes()


def test_one_lane_and_one_weight_pair_per_stack():
    f = ProblemInstance((1,) * 4, 2, range(4))
    with pytest.raises(ValueError):
        z_tables([f, f.to_float()])
    with pytest.raises(ValueError):
        z_tables([f, ProblemInstance((1,) * 4, 1, range(4))])


class TestOneBuildPerCommand:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The stack sizes of every z-table build; a read of a UniPoly
        reference body raises."""
        sizes = []
        real = gl2rep._build_tables
        monkeypatch.setattr(gl2rep, "_build_tables",
                            lambda insts: sizes.append(len(insts)) or real(insts))

        def forbidden(*args):
            raise AssertionError("the pipeline read a reference table")

        for name in ("zproduct", "zpolys", "dh_blocks", "kernel_pair_polys", "kernel_pair_maps",
                     "partial_fractions", "marked_exponents", "w_coeffs"):
            monkeypatch.setattr(scheme_reference, name, forbidden)
        return sizes

    @pytest.mark.parametrize("samples", [1, 4])
    def test_verify(self, builds, samples):
        config = {"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1", "2", "3"], "mode": "float",
                  "seed": 0}
        cmd_verify(config, samples)
        assert builds == [samples]

    def test_spectrum(self, builds):
        rep, _ = cmd_spectrum({"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1", "2", "3"], "seed": 0})
        assert rep["spectrum_sing_l"]["points"]
        # the float twin's tables; the exact instance's are never built
        assert builds == [1]


class TestShQuotientLanes:
    def test_fields_formed_when_read(self):
        q = sh_quotient(ProblemInstance((2,) * 4, 3, range(4)))
        names = ("sing", "gram", "sh", "lift", "radical", "gram_sing")
        assert not any(name in vars(q) for name in names)
        assert q.dim == q.sh.shape[0] and "sh" in vars(q)
        assert not any(name in vars(q) for name in names if name != "sh")

    @pytest.mark.parametrize("m, l", [((1,) * 4, 2), ((2,) * 4, 3), ((3,) * 4, 4),
                                      ((1, 0, 1, 2), 2), ((3, 2, 3, 1), 2)])
    def test_float_lane_rounds_each_entry_once(self, m, l):
        frame = GaudinFrame(ProblemInstance(m, l, range(len(m))))
        exact, flt = frame.lane(True).shq, frame.lane(False).shq
        assert flt.dim == exact.dim and np.array_equal(flt.free, exact.free)
        for name in ("sing", "gram", "sh", "lift", "radical", "gram_sing"):
            got = getattr(flt, name)
            assert not got.flags.writeable and got.dtype == complex
            assert got.tobytes() == to_float_array(getattr(exact, name)).tobytes(), name

    def test_verify_forms_only_the_float_projection(self):
        frames = []
        real = GaudinFrame.__init__

        def keep(frame, inst):
            frames.append(frame)
            real(frame, inst)

        mp = pytest.MonkeyPatch()
        mp.setattr(GaudinFrame, "__init__", keep)
        try:
            cmd_verify({"m": [2, 2, 2, 2], "l": 3, "z": ["0", "1", "3", "7"], "mode": "float",
                        "seed": 0}, 2)
        finally:
            mp.undo()
        (frame,) = frames
        assert set(frame._lanes) == {False}
        formed = [name for name in ("sing", "gram", "sh", "lift", "radical", "gram_sing")
                  if name in vars(frame.lane(False).shq)]
        assert formed == ["sh"]
        assert not any(name in vars(frame._shq) for name in formed)
