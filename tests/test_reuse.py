"""The prepared function of the last f, whose samples and set-ups best_approx, k_functional and modulus keep across calls: bitwise, never stale, and sampled once per rule."""

import gc
import importlib
import math
import pkgutil
import sys
import threading
import weakref

import numpy as np
import pytest

import smoothness_lab
from smoothness_lab import Config, FunctionHandle, SpaceParams, best_approx, corpus, k_functional, modulus, space

# the four spaces of the spaces benchmark, and (2, 1)
SPACES = {
    "p1": SpaceParams(1.0, 0.75),
    "p1.5": SpaceParams(1.5, 11.0 / 12.0),
    "p2": SpaceParams(2.0, 1.0),
    "p3": SpaceParams(3.0, 13.0 / 12.0),
    "pinf": SpaceParams(math.inf, 1.25),
}


def _cold():
    space._PREPARED.clear()


def _kept():
    """The prepared function the one memo keeps, or None."""
    entry = space._PREPARED._entry
    return None if entry is None else entry[1]


def _same_k(a, b):
    return (
        a.value == b.value
        and np.array_equal(a.witness.cheb, b.witness.cheb)
        and (a.delta, a.max_deg, a.iterations, a.gap) == (b.delta, b.max_deg, b.iterations, b.gap)
    )


@pytest.mark.parametrize("name", sorted(SPACES))
def test_one_delta_calls_equal_the_joint_call_bitwise(name):
    # successive one-delta calls reuse the delta-free work of the first; in
    # either order they give what a cold call per delta gives, and the moduli
    # what one cold call over all the deltas gives
    params = SPACES[name]
    cfg = Config()
    for e in corpus(7):
        h = e.handle
        cold_k = {}
        for d in cfg.deltas:
            _cold()
            cold_k[d] = k_functional(h, d, params, cfg.kdeg, cfg.norm_nodes)
        _cold()
        joint_m = dict(zip(cfg.deltas, modulus(h, cfg.deltas, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)))
        for order in (cfg.deltas, cfg.deltas[::-1]):
            _cold()
            for d in order:
                assert _same_k(k_functional(h, d, params, cfg.kdeg, cfg.norm_nodes), cold_k[d]), (e.label, d)
            for d in order:
                assert modulus(h, d, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes) == joint_m[d], (e.label, d)


def _same_e(a, b):
    return (a.value, a.method, a.diagnostics) == (b.value, b.method, b.diagnostics) and np.array_equal(
        a.argmin.cheb, b.argmin.cheb
    )


@pytest.mark.parametrize("name", sorted(SPACES))
def test_best_approx_in_order_equals_cold_calls_bitwise(name):
    # n = 1..32 in order reuse the samples of the first call, and the solve
    # of each pair of n that share a column set; each result, diagnostics
    # included, is bitwise that of a cold call
    params = SPACES[name]
    cfg = Config()
    for e in corpus(7):
        h = e.handle
        _cold()
        warm = [best_approx(h, n, params, cfg.approx_grid) for n in range(1, 33)]
        for n, got in zip(range(1, 33), warm):
            _cold()
            assert _same_e(got, best_approx(h, n, params, cfg.approx_grid)), (e.label, n)


def test_best_approx_misses_the_memo_after_eval_is_reassigned():
    params = SPACES["p1"]
    h = FunctionHandle(eval=lambda x: np.abs(x))
    _cold()
    stale = best_approx(h, 4, params)
    h.eval = _bend
    got = best_approx(h, 4, params)
    _cold()
    want = best_approx(h, 4, params)
    assert _same_e(got, want) and got.value != stale.value


def _bump(x):
    return np.abs(x - 0.3)


def _bend(x):
    return np.abs(x + 0.2) ** 1.5


@pytest.mark.parametrize("name", ["p1.5", "p2", "pinf"])
def test_a_changed_function_or_setting_is_never_served_stale(name):
    # warm both memos with h at the base settings, change one thing, and the
    # call must give the value of a cold call on the changed input
    params = SPACES[name]
    other = SPACES["p3"]
    delta = 0.1
    base_k = dict(params=params, max_deg=16, quad_n=64)
    base_m = dict(params=params, t_points=4, quad_n=32, norm_nodes=64)

    def k_of(f, **kw):
        return k_functional(f, delta, **{**base_k, **kw})

    def m_of(f, **kw):
        return modulus(f, delta, **{**base_m, **kw})

    def warm_and_check(make, k_kw=None, m_kw=None):
        # make() gives the handle to call after warming with the one it
        # replaces or changes; the changed value is compared with a cold call
        h = FunctionHandle(eval=_bump, breaks=(0.3,))
        _cold()
        stale = (k_of(h), m_of(h))
        g = make(h)
        got = (k_of(g, **(k_kw or {})), m_of(g, **(m_kw or {})))
        _cold()
        want = (k_of(g, **(k_kw or {})), m_of(g, **(m_kw or {})))
        assert _same_k(got[0], want[0]) and got[1] == want[1]
        # whether a stale entry would have shown: the K result or the modulus moved
        return not _same_k(stale[0], got[0]) or stale[1] != got[1]

    def reassign_eval(h):
        h.eval = _bend
        return h

    def drop_breaks(h):
        h.breaks = ()
        return h

    assert warm_and_check(lambda h: FunctionHandle(eval=_bend))  # a new handle
    assert warm_and_check(reassign_eval)  # the same handle with another eval
    assert warm_and_check(drop_breaks)
    for k_kw, m_kw in (
        ({"params": other}, {"params": other}),
        ({"max_deg": 12}, {"t_points": 5}),
        ({"quad_n": 80}, {"quad_n": 48}),
        ({}, {"norm_nodes": 80}),
    ):
        assert warm_and_check(lambda h: h, k_kw, m_kw), (k_kw, m_kw)

    # the same handle, warmed as a cubic without a degree and then declaring it
    h = FunctionHandle(eval=lambda x: x**3 - x)
    _cold()
    k_of(h), m_of(h)
    h.degree = 3
    got = (k_of(h), m_of(h))
    _cold()
    assert _same_k(got[0], k_of(h)) and got[1] == m_of(h)

    # |x| warmed with its break and then declaring degree 1 between breaks
    h = FunctionHandle(eval=np.abs, breaks=(0.0,))
    _cold()
    stale = m_of(h)
    h.degree = 1
    got = m_of(h)
    _cold()
    assert got == m_of(h) and got != stale


def test_the_memo_holds_one_entry():
    # a call on another function replaces the kept entry; modulus keeps the
    # chopped series of an f with no declared degree in its own slot
    params = SPACES["p1.5"]
    f, g = FunctionHandle(eval=_bump), FunctionHandle(eval=_bend)
    best_approx(f, 4, params)
    k_functional(f, 0.4, params, 16, 64)
    modulus(f, 0.4, params, 4, 32, 64)
    best_approx(g, 4, params)
    k_functional(g, 0.4, params, 16, 64)
    modulus(g, 0.4, params, 4, 32, 64)
    assert space._PREPARED._entry[0][0] is g
    assert _kept().f is g and set(_kept()._slots) == {"E", "K", "modulus", "series"}


def test_a_call_on_another_f_drops_every_set_up_of_the_last():
    params = SPACES["p1.5"]
    f = FunctionHandle(eval=lambda x: x * x, degree=2)
    best_approx(f, 5, params)
    best_approx(f, 2, params)
    k_functional(f, 0.4, params, 16, 64)
    modulus(f, 0.4, params, 4, 32, 64)
    prepared = _kept()
    assert set(prepared._slots) == {"coefficients", "fit", "E", "K", "modulus"}
    prepared = weakref.ref(prepared)
    g = FunctionHandle(eval=_bend)
    modulus(g, 0.4, params, 4, 32, 64)
    gc.collect()
    assert prepared() is None
    assert _kept().f is g and set(_kept()._slots) == {"modulus", "series"}


def test_only_the_rules_of_live_slots_keep_samples():
    # a slot built again at other settings drops the samples that only its
    # old value took; a rule that another slot takes stays
    params = SPACES["p1.5"]
    h = FunctionHandle(eval=_bump)
    best_approx(h, 4, params, 64)
    k_functional(h, 0.4, params, 16, 64)
    rules = lambda: sorted(np.frombuffer(key).size for key in _kept()._samples)
    # the E solve rule, which K takes, the report rule and the (2,2) rule of K's projection
    assert rules() == [64, 256, 256]
    k_functional(h, 0.4, params, 16, 80)
    assert rules() == [64, 80, 256, 256]
    best_approx(h, 4, params, 96)
    assert rules() == [80, 96, 256, 256]
    modulus(h, 0.4, params, 4, 32, 80)
    k_functional(h, 0.4, params, 16, 100)
    assert rules() == [80, 96, 100, 256, 256]


def test_the_package_keeps_one_memo_and_the_fixture_empties_it():
    # every module-level _LastCall of the package; a second one would keep
    # state that tests/conftest.py does not clear
    memos = []
    for info in pkgutil.walk_packages(smoothness_lab.__path__, "smoothness_lab."):
        module = importlib.import_module(info.name)
        memos += [(info.name, name) for name, value in vars(module).items() if isinstance(value, space._LastCall)]
    assert memos == [("smoothness_lab.space", "_PREPARED")]
    assert space._PREPARED._entry is None


@pytest.mark.parametrize("p, alpha", [(1.0, 0.75), (1.5, 11.0 / 12.0), (3.0, 13.0 / 12.0), (math.inf, 1.25)])
def test_the_spaces_sequence_samples_each_rule_once(p, alpha):
    # best_approx over n = 1..32, then k_functional and modulus over the
    # deltas, entry by entry as the spaces benchmark calls them: no entry's
    # eval sees the same array of nodes twice
    params = SpaceParams(p, alpha)
    cfg = Config()
    for e in corpus(7):
        seen = []
        real = e.handle.eval

        def counted(x, real=real, seen=seen):
            x = np.asarray(x)
            assert not any(x.shape == s.shape and np.array_equal(x, s) for s in seen), (e.label, x.shape)
            seen.append(x.copy())
            return real(x)

        e.handle.eval = counted
        h = e.handle
        for n in range(1, 33):
            best_approx(h, n, params, cfg.approx_grid)
        for d in cfg.deltas:
            k_functional(h, d, params, cfg.kdeg, cfg.norm_nodes)
        for d in cfg.deltas:
            modulus(h, d, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        assert seen, e.label


def test_concurrent_calls_neither_raise_nor_change_a_value():
    # four threads make 40 rounds each of k_functional, best_approx and
    # modulus calls, on |x| or sin(3x) and at settings drawn per round, so
    # that the slots, the one memo and the rows of jacobi_matrix keep being
    # replaced while the interpreter switches threads as often as it can
    handles = [e.handle for e in corpus(7) if e.label in ("|x|", "sin(3x)")]
    spaces = (SpaceParams(1.5, 11.0 / 12.0), SpaceParams(3.0, 13.0 / 12.0), SpaceParams(1.0, 0.75))
    settings = [(h, params, nodes, kdeg) for h in handles for params in spaces for nodes in (16, 22, 28) for kdeg in (4, 6, 8)]

    def values(h, params, nodes, kdeg):
        return (
            k_functional(h, 0.4, params, kdeg, nodes).value,
            best_approx(h, kdeg, params, nodes).value,
            modulus(h, 0.4, params, 4, 16, nodes),
        )

    cold = []
    for s in settings:
        _cold()
        cold.append(values(*s))
    _cold()
    errors, wrong = [], []

    def worker(seed):
        try:
            for i in np.random.default_rng(seed).integers(len(settings), size=40):
                if values(*settings[i]) != cold[i]:
                    wrong.append(settings[i])
        except Exception as e:  # noqa: BLE001 - reported by the assertion below
            errors.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
