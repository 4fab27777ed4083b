"""Solovay-Kitaev approximation over finite gate sets.

A net is a deduplicated table of all products of at most L generators,
held as two parallel columns: the entries' label sequences (application
order) and one contiguous, read-only (N, d, d) stack of their matrices,
which the search scans in one batched call.  The stack is the net's only
copy of its matrices: overlaps conjugate the target.  Dedup keeps the first
sequence found in breadth-first order, so entries are shortest-first,
every entry's sequence minus its last label is an earlier entry, and net
construction is fully deterministic.  Those two properties let
net_from_sequences rebuild a net's matrices from its sequences alone, one
batched matmul per length, bit for bit as the build formed them; net
caches therefore store no matrices.

The build works one breadth-first layer at a time: one batched matmul
makes a chunk of candidates, and a candidate is a duplicate when some
entry accepted before it has dist < tol.  Accepted entries are sorted by
one real key that ignores global phase and moves by at most sqrt(d) times
dist, so the only entries that can be duplicates of a candidate lie in a
key window of half-width sqrt(d) tol around it.  Whole windows are tested
at once with one overlap einsum, and an in-order pass applies the
keep-first rule, which gives the same net as comparing each candidate
with every earlier entry.

The recursion refines a depth-(k-1) approximation u' of u by factoring the
residual u @ u'^dagger into a balanced group commutator V W V^dag W^dag,
recursing on V and W, and prepending u'.  V and W are rotations by one
angle about two orthogonal axes, all three in closed form: the axes are
built in a frame around the residual's own axis, so no commutator is
formed and no axis is read back from one.  The 2x2 kernels of the
recursion (the Pauli components, the frame's cross products, the two
rotations, the unitarity check and the 2x2 distance) are closed forms on
Python scalars read once through .tolist(); numpy's per-call overhead on
2x2 matrices and 3-vectors cost more than their arithmetic.  The
transcendental functions stay numpy's, whose results differ from the math
module's in the last bit on some inputs, so outputs are bit for bit those
of the array form.  The commutator is formed once, to check it against
u @ u'^dagger with no eigensolver: their Frobenius distance at the phase
of their trace overlap bounds dist from above, so a commutator that
passes that bound passes dist too.  Refinement keeps whichever of the
refined and unrefined candidates is closer, so achieved distance is
monotone non-increasing in depth.  Only dimension 2 is refined;
dimension 4 gets the depth-0 net lookup with an honestly reported
distance.

The search measures the phase-free dist by default.  On request it
measures the phase-fixed ||e - u||_2 instead, which a realified circuit
sees, since realification keeps a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import BudgetNotMet, CapExceeded, CompileError, ValidationError
from .gates import GateSet
from .linalg import (
    CLOSED_FORM_MIN,
    UNITARY_TOL,
    aligned_frob_2x2,
    as_matrix,
    dist,
    is_unitary,
    phase_dist,
)

DEFAULT_DEDUPE_TOL = 1e-4
DEFAULT_EPS = 1e-2
# Most entries build_net keeps before it raises CapExceeded, read at each
# call so that a test can lower it.
MAX_ENTRIES = 5_000_000
GC_MAX_DIST = 0.5
# Largest group-commutator residual that gc_decompose accepts.
COMMUTATOR_TOL = 1e-10

@dataclass(frozen=True)
class NetEntry:
    seq: tuple[str, ...]
    matrix: np.ndarray

    @property
    def length(self) -> int:
        return len(self.seq)


class Net:
    """Immutable entry table over a gate set.

    seqs[i] is entry i's label sequence and stack[i] its matrix; the stack
    is one read-only (N, d, d) array, held once: searches conjugate their
    target, not the stack.  NetEntry objects are made only on
    request: `entries` builds them all on first read, and `nearest` makes
    one for its winner; the search itself returns an index.
    """

    def __init__(
        self,
        gateset: GateSet,
        max_length: int,
        dedupe_tol: float,
        seqs,
        stack: np.ndarray,
    ):
        self.gateset = gateset
        self.max_length = max_length
        self.dedupe_tol = dedupe_tol
        self.seqs: tuple[tuple[str, ...], ...] = tuple(seqs)
        # A read-only view: the caller's array keeps its own flags.
        stack = np.asarray(stack, dtype=complex).view()
        d = gateset.dim
        if stack.shape != (len(self.seqs), d, d):
            raise ValidationError(
                f"net stack of shape {stack.shape} does not hold "
                f"{len(self.seqs)} matrices of dimension {d}"
            )
        stack.flags.writeable = False
        self.stack = stack

    def __len__(self) -> int:
        return len(self.seqs)

    @property
    def dim(self) -> int:
        return self.gateset.dim

    @cached_property
    def entries(self) -> tuple[NetEntry, ...]:
        return tuple(map(NetEntry, self.seqs, self.stack))

    @cached_property
    def absdet_stack(self) -> np.ndarray:
        s = self.stack
        return np.abs(s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0])


def build_net(
    gateset: GateSet,
    max_length: int,
    dedupe_tol: float = DEFAULT_DEDUPE_TOL,
) -> Net:
    """All products of <= max_length generators, deduplicated at dedupe_tol.

    Each breadth-first layer multiplies every generator onto every frontier
    entry in (entry, label) order, at most _CHUNK candidates at a time.  A
    candidate is kept when no entry accepted before it, in this chunk or
    earlier, lies within dist < dedupe_tol.
    """
    if max_length < 0:
        raise ValidationError(f"max_length must be >= 0, got {max_length}")
    if not 0 < dedupe_tol < math.inf:
        raise ValidationError(f"dedupe_tol must be positive and finite, got {dedupe_tol}")
    dim, labels = gateset.dim, gateset.labels
    gens = _generators(gateset)
    index = _KeyIndex(dim, dedupe_tol)
    index.add(np.eye(dim, dtype=complex)[None])
    seqs: list[tuple[str, ...]] = [()]
    start = 0
    per_block = max(1, _CHUNK // max(1, len(labels)))
    for length in range(1, max_length + 1):
        stop = len(seqs)
        frontier = index.mats[start:stop]
        for lo in range(0, stop - start, per_block):
            block = frontier[lo : lo + per_block]
            cands = (gens[None] @ block[:, None]).reshape(-1, dim, dim)
            kept = index.first_of_kind(cands)
            if len(seqs) + len(kept) > MAX_ENTRIES:
                raise CapExceeded(f"net exceeded {MAX_ENTRIES} entries at length {length}")
            index.add(cands[kept])
            for k in kept.tolist():
                entry, g = divmod(k, len(labels))
                seqs.append(seqs[start + lo + entry] + (labels[g],))
        start = stop
    return Net(gateset, max_length, dedupe_tol, seqs, index.mats)


def _generators(gateset: GateSet) -> np.ndarray:
    dim, labels = gateset.dim, gateset.labels
    gens = np.array([gateset.matrix(lab) for lab in labels], dtype=complex)
    return gens.reshape(len(labels), dim, dim)


def net_from_sequences(
    gateset: GateSet,
    max_length: int,
    dedupe_tol: float,
    seqs: list[tuple[str, ...]],
    parents: list[int],
    lasts: list[int],
) -> Net:
    """The net with these entries, its matrices rebuilt from the generators.

    The sequences must be shortest-first and prefix-closed, with seqs[0]
    empty: entry i is entry parents[i] followed by generator lasts[i] (an
    index into gateset.labels), and parents[i] is an entry one shorter.
    Each length's matrices come from one batched matmul,
    gens[last] @ matrix[parent], the same per-pair product build_net forms,
    so a net read back from its cache has build_net's matrices bit for bit.
    """
    dim = gateset.dim
    gens = _generators(gateset)
    stack = np.empty((len(seqs), dim, dim), dtype=complex)
    stack[0] = np.eye(dim, dtype=complex)
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    bounds = np.searchsorted(lengths, np.arange(1, lengths[-1] + 2)).tolist()
    parents_a = np.asarray(parents, dtype=np.intp)
    lasts_a = np.asarray(lasts, dtype=np.intp)
    for lo, hi in zip(bounds, bounds[1:]):
        stack[lo:hi] = gens[lasts_a[lo:hi]] @ stack[parents_a[lo:hi]]
    return Net(gateset, max_length, dedupe_tol, seqs, stack)


_CHUNK = 2**12
# Float slack on the key window: it covers the cancellation in
# 2d - 2|overlap| (about sqrt(d eps)) and the rounding of the keys.
_BOUND_SLACK = 1e-6


class _KeyIndex:
    """Accepted matrices sorted by one phase-invariant real key.

    The key is x(m) = |<w, vec m>| for a fixed generic unit vector w.  It
    ignores global phase, and by Cauchy-Schwarz
    |x(a) - x(b)| <= ||a - e^{i phi} b||_F for every phi, so it is at most
    frob(a, b) <= sqrt(d) dist(a, b).  Every accepted entry that the
    duplicate rule can flag for a candidate therefore has its key within
    sqrt(d) tol (plus float slack) of the candidate's, and a sorted key
    array turns the search into one window per candidate.
    """

    def __init__(self, dim: int, tol: float):
        self.dim = dim
        self.tol = tol
        self.half_width = np.sqrt(dim) * tol + _BOUND_SLACK
        # Phases k^2 radians share no rational relation with pi, so exact
        # gate-set entries do not cancel in the key.
        k = np.arange(1, dim * dim + 1)
        w = np.sqrt(k) * np.exp(1j * k * k)
        self.weights = w / np.linalg.norm(w)
        self.mats = np.empty((0, dim, dim), dtype=complex)  # in acceptance order
        self._keys = np.empty(0)  # ascending
        self._ids = np.empty(0, dtype=np.intp)  # row of mats for each key

    def keys(self, ms: np.ndarray) -> np.ndarray:
        return np.abs(ms.reshape(len(ms), self.dim * self.dim) @ self.weights)

    def add(self, ms: np.ndarray):
        n = len(self.mats)
        keys = np.concatenate([self._keys, self.keys(ms)])
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._ids = np.concatenate([self._ids, np.arange(n, n + len(ms))])[order]
        self.mats = np.concatenate([self.mats, ms])

    def first_of_kind(self, cands: np.ndarray) -> np.ndarray:
        """Indices of the candidates the in-order keep-first rule accepts."""
        keys = self.keys(cands)
        which, pos = _window(self._keys, keys, self.half_width)
        prior = self._ids[pos]
        hit = _duplicates(self.mats[prior], cands[which], self.tol)
        keep = np.ones(len(cands), dtype=bool)
        keep[which[hit]] = False
        # Pairs inside the chunk among the survivors, earlier index first.
        fresh = np.flatnonzero(keep)
        order = np.argsort(keys[fresh], kind="stable")
        which, pos = _window(keys[fresh][order], keys[fresh], self.half_width)
        earlier = order[pos]
        mask = earlier < which
        later, earlier = fresh[which[mask]], fresh[earlier[mask]]
        hit = _duplicates(cands[earlier], cands[later], self.tol)
        # Pairs come sorted by the later index, so each earlier candidate's
        # fate is settled before it is consulted.
        for j, i in zip(earlier[hit].tolist(), later[hit].tolist()):
            if keep[j]:
                keep[i] = False
        return np.flatnonzero(keep)


def _window(sorted_keys: np.ndarray, queries: np.ndarray, half_width: float):
    """(query, position) pairs with |sorted_keys[position] - query| <= half_width."""
    lo = np.searchsorted(sorted_keys, queries - half_width, side="left")
    hi = np.searchsorted(sorted_keys, queries + half_width, side="right")
    counts = hi - lo
    which = np.repeat(np.arange(len(queries)), counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return which, np.repeat(lo, counts) + offsets


def _duplicates(earlier: np.ndarray, later: np.ndarray, tol: float) -> np.ndarray:
    """dist(earlier[k], later[k]) < tol for each pair.

    frob, the Frobenius distance minimized over phase, has
    dist <= frob <= sqrt(d) dist: frob < tol decides a duplicate at once,
    and the pairs with tol <= frob < sqrt(d) tol share one eigenphase call.
    """
    d = later.shape[-1]
    overlap = np.abs(np.einsum("nij,nij->n", np.conj(earlier), later))
    frob = np.sqrt(np.maximum(2.0 * d - 2.0 * overlap, 0.0))
    hit = frob < tol
    band = np.flatnonzero(~hit & (frob < tol * np.sqrt(d)))
    if len(band):
        hit[band] = _row_dists(earlier[band], later[band]) < tol
    return hit


def _row_dists(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """dist(rows[k], u), u one matrix or one per row, from rows[k]^dag u."""
    return phase_dist(np.swapaxes(np.conj(rows), -1, -2) @ u)


_TIE_TOL = 1e-12


def _nearest(net: Net, u: np.ndarray, phase_fixed: bool = False) -> tuple[int, float]:
    """Index of the closest entry under dist, and its distance to u.

    With phase_fixed, the distance is ||e - u||_2 instead, which counts a
    global phase between the two.  Ties within _TIE_TOL go to the shorter,
    then lexicographically first, sequence.
    """
    if not len(net):
        raise ValidationError("net has no entries")
    u = as_matrix(u)
    if u.shape[0] != net.dim:
        raise ValidationError(
            f"target dimension {u.shape[0]} does not match net dimension {net.dim}"
        )
    if not is_unitary(u, UNITARY_TOL):
        raise ValidationError("nearest-entry search needs a unitary target")
    d = net.dim
    seqs = net.seqs
    # tr(u^dag e) for every entry e, the conjugate taken on the one target.
    traces = np.einsum("nij,ij->n", net.stack, np.conj(u))
    if phase_fixed:
        # ||e - u||_F^2 = 2d - 2 Re tr(u^dag e).
        cand, dists = _bounded_search(
            net.stack, traces.real, lambda rows: np.linalg.norm(rows - u, ord=2, axis=(-2, -1))
        )
    elif d == 2:
        # Same closed form as dist() on unitary 2x2 pairs, over all entries
        # at once: the overlap and |det| give the folded eigenphase gap.
        absdet_u = abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])
        folded = np.minimum(1.0, np.abs(traces) / (2.0 * np.sqrt(net.absdet_stack * absdet_u)))
        dists = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * folded))
        cand = np.arange(len(net))
    else:
        # min over phi of ||e - e^{i phi} u||_F^2 = 2d - 2 |tr(u^dag e)|.
        cand, dists = _bounded_search(
            net.stack, np.abs(traces), lambda rows: _row_dists(rows, u)
        )
    ties = np.flatnonzero(dists <= dists.min() + _TIE_TOL)
    best, achieved = min(
        zip(cand[ties].tolist(), dists[ties].tolist()),
        key=lambda pair: (len(seqs[pair[0]]), seqs[pair[0]]),
    )
    if d == 2 and not phase_fixed and achieved < CLOSED_FORM_MIN:
        # Near-exact hits sit in the closed form's cancellation regime;
        # report the achieved distance at full absolute accuracy.
        achieved = dist(net.stack[best], u)
    return best, achieved


def _bounded_search(stack: np.ndarray, overlap: np.ndarray, kernel):
    """(candidates, kernel distances) for the entries that can be nearest.

    overlap gives each entry's squared Frobenius distance 2d - 2 overlap,
    and f / sqrt(d) <= kernel for that distance f; the smallest bound's
    entry gives an upper bound on the minimum, and only entries whose lower
    bound reaches it go through the kernel, with slack for the cancellation
    in 2d - 2 overlap (~sqrt(d eps)).
    """
    d = stack.shape[-1]
    lower = np.sqrt(np.maximum(2.0 * d - 2.0 * overlap, 0.0) / d)
    upper = kernel(stack[int(np.argmin(lower))])
    cand = np.flatnonzero(lower <= upper + _BOUND_SLACK)
    return cand, kernel(stack[cand])


def nearest(net: Net, u) -> NetEntry:
    """Closest entry under dist; ties go to shorter, then lexicographic, seq."""
    k = _nearest(net, u)[0]
    return NetEntry(net.seqs[k], net.stack[k])


# --- balanced group commutator -------------------------------------------

def _to_su2(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    out = m / np.sqrt(det)
    if out[0, 0].real + out[1, 1].real < 0:
        out = -out
    return out


def _angle_axis(m_su2: np.ndarray) -> tuple[float, tuple[float, float, float] | None]:
    """Rotation angle in [0, pi] and unit axis; axis is None near identity.

    The axis is the Pauli components (i tr(sigma_k m) / 2).real in closed
    form, with tr(X m) = m10 + m01, tr(Y m) = i (m01 - m10) and
    tr(Z m) = m00 - m11.  The angle comes from atan2 of their norm against
    the trace, which stays accurate near identity, where arccos of the
    trace loses about eps/theta.
    """
    (m00, m01), (m10, m11) = m_su2.tolist()
    c = (m00.real + m11.real) / 2.0
    n = (
        -(m10 + m01).imag / 2.0,
        (m10.real - m01.real) / 2.0,
        (m11.imag - m00.imag) / 2.0,
    )
    s = np.linalg.norm(n)
    theta = 2.0 * np.arctan2(s, c)
    if s < 1e-12:
        return float(theta), None
    return float(theta), (n[0] / s, n[1] / s, n[2] / s)


def _rotation(axis, angle: float) -> np.ndarray:
    """exp(-i angle/2 (x X + y Y + z Z)) for a unit axis (x, y, z), entry by entry."""
    x, y, z = axis
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array(
        [
            [complex(c, -s * z), complex(-s * y, -s * x)],
            [complex(s * y, -s * x), complex(c, s * z)],
        ]
    )


def gc_decompose(delta) -> tuple[np.ndarray, np.ndarray]:
    """Factor a near-identity 2x2 unitary as a balanced group commutator.

    Returns equal-angle rotations (V, W) about orthogonal axes with
    dist(delta, V W V^dag W^dag) <= COMMUTATOR_TOL.  The rotation angle is
    a closed form in delta's angle, and the two axes are a closed form in
    that angle and delta's axis: they are built in a frame around delta's
    axis, so no commutator is formed to read its axis back.  Everything
    but the transcendental functions, which stay numpy's, is arithmetic on
    Python floats.  The residual is still checked on the formed commutator,
    through aligned_frob_2x2: an upper bound on dist that needs no
    eigensolver, so the check is never looser than one on dist.
    """
    delta = as_matrix(delta)
    if delta.shape[0] != 2:
        raise ValidationError("gc_decompose handles dimension 2 only")
    if not is_unitary(delta):
        raise ValidationError("gc_decompose requires a unitary input")
    theta, axis = _angle_axis(_to_su2(delta))
    # A rotation by theta in [0, pi] has eigenphases +-theta/2, an arc of
    # width theta, so dist(delta, I) = 2 sin(theta/4).
    gap = 2.0 * np.sin(theta / 4.0)
    if gap > GC_MAX_DIST:
        raise ValidationError(
            f"gc_decompose needs dist(delta, I) <= {GC_MAX_DIST}, got {gap:.3f}"
        )
    if axis is None or theta <= 2e-10:
        eye = np.eye(2, dtype=complex)
        return eye, eye

    # Rotations by phi about x and y have a commutator of angle theta with
    # sin(theta/2) = 2 sin^2(phi/2) sqrt(1 - sin^4(phi/2)) (Dawson & Nielsen,
    # quant-ph/0505030); with sin^2(phi/2) = sin(a) the right side is
    # sin(2a), so a = theta/4.
    phi = 2.0 * np.arcsin(np.sqrt(np.sin(theta / 4.0)))
    # The quaternion product puts that commutator's axis at (s, -s, c) / r,
    # with s, c = sin, cos(phi/2) and r = sqrt(1 + s^2).  In a frame (n, a,
    # b) around delta's axis n, the axes x' and y' below are orthonormal and
    # s x' - s y' + c (x' cross y') = r n, so the rotation taking x, y to
    # x', y' takes the commutator's axis onto n.
    s, c = np.sin(phi / 2.0), np.cos(phi / 2.0)
    r = math.sqrt(1.0 + s * s)
    # a = n x e_j / |n x e_j| for n's smallest component j, and b = n x a.
    n0, n1, n2 = axis
    j = min(range(3), key=lambda k: abs(axis[k]))
    e0, e1, e2 = e_j = tuple(float(k == j) for k in range(3))
    norm = math.sqrt(1.0 - axis[j] ** 2)
    a = ((n1 * e2 - n2 * e1) / norm, (n2 * e0 - n0 * e2) / norm, (n0 * e1 - n1 * e0) / norm)
    b = [(axis[j] * n - e) / norm for n, e in zip(axis, e_j)]
    root2 = math.sqrt(2.0)
    along, across = s / r, c / (r * root2)
    v = _rotation([along * n + ak / root2 - across * bk for n, ak, bk in zip(axis, a, b)], phi)
    w = _rotation([-along * n + ak / root2 + across * bk for n, ak, bk in zip(axis, a, b)], phi)
    residual = aligned_frob_2x2(delta, v @ w @ v.conj().T @ w.conj().T)
    if residual > COMMUTATOR_TOL:
        raise CompileError(
            f"group commutator residual {residual:.3e} above {COMMUTATOR_TOL:.1e}"
        )
    return v, w


# --- recursion ------------------------------------------------------------

@dataclass(frozen=True)
class SKConfig:
    net: Net
    eps: float = DEFAULT_EPS
    depth: int = 3

    def __post_init__(self):
        if not self.eps > 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.depth < 0:
            raise ValidationError(f"depth must be >= 0, got {self.depth}")


@dataclass(frozen=True)
class _Approx:
    seq: tuple[str, ...]
    matrix: np.ndarray
    achieved: float


def _invert_seq(seq, gateset: GateSet) -> tuple[str, ...]:
    return tuple(chain.from_iterable(map(gateset.inverse_labels, reversed(seq))))


def _refine(u: np.ndarray, prev: _Approx, sub_depth: int, net: Net) -> _Approx:
    # dist is unitary-invariant, so dist(residual, I) is exactly prev.achieved
    # and the group-commutator precondition reduces to a threshold on it.
    if prev.achieved < 1e-12 or prev.achieved > GC_MAX_DIST:
        return prev
    delta = u @ prev.matrix.conj().T
    v_t, w_t = gc_decompose(delta)
    av = _levels(v_t, sub_depth, net)[-1]
    aw = _levels(w_t, sub_depth, net)[-1]
    m = av.matrix @ aw.matrix @ av.matrix.conj().T @ aw.matrix.conj().T @ prev.matrix
    gs = net.gateset
    seq = (
        prev.seq
        + _invert_seq(aw.seq, gs)
        + _invert_seq(av.seq, gs)
        + aw.seq
        + av.seq
    )
    achieved = dist(m, u)
    if achieved < prev.achieved:
        return _Approx(seq, m, achieved)
    return prev


def _levels(u: np.ndarray, depth: int, net: Net) -> list[_Approx]:
    """Approximations of u at depths 0..depth, each refining the one before."""
    best, d0 = _nearest(net, u)
    levels = [_Approx(net.seqs[best], net.stack[best], d0)]
    for k in range(depth):
        levels.append(_refine(u, levels[-1], k, net))
    return levels


def sk_trace(u, cfg: SKConfig) -> list[tuple[tuple[str, ...], float]]:
    """Approximations of u at every depth 0..cfg.depth (shared recursion)."""
    u = as_matrix(u)
    if u.shape[0] != 2:
        raise ValidationError("the recursion refines single-qubit targets only")
    if not is_unitary(u):
        raise ValidationError("target must be unitary")
    return [(a.seq, a.achieved) for a in _levels(u, cfg.depth, cfg.net)]


def sk_approx(u, cfg: SKConfig) -> tuple[tuple[str, ...], float]:
    """Label sequence approximating u within cfg.eps, or BudgetNotMet."""
    seq, achieved = sk_trace(u, cfg)[-1]
    if achieved > cfg.eps:
        raise BudgetNotMet(
            f"achieved {achieved:.3e} at depth {cfg.depth}, budget {cfg.eps:.3e}",
            best_seq=seq,
            achieved=achieved,
        )
    return seq, achieved
