"""Exact state-vector simulation of quantum leveled programs: unitary
transition pairs selected by input bits, a single end-of-run measurement
against an accepting subset, bounded-error verdicts for every program kind,
and the quantum commutativity cap.

A QuantumProgram is a `diagrams.LeveledProgram` whose operator is a unitary
matrix acting on a column of amplitudes, so it runs on the same engine as the
classical kinds: `diagrams._whole_table` for every input, `diagrams.propagate`
for a given batch and `diagrams._evaluate` for one input. A batch of row
states is multiplied by `g.T`; one input applies `g @ state`.

Conventions:
  * amplitudes are complex; acceptance probability is the squared-modulus mass
    on the accepting subset;
  * accepting states are 1-indexed (state i refers to amplitude index i-1);
  * one transition pair per variable; for k-layer programs the same n pairs
    repeat each layer; every level has `dim` states;
  * the tolerances of the unitarity, norm and probability checks are
    `limits.TOL` and `limits.EXACT_TOL`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .boolfn import BoolFn, PartialBoolFn, VarOrder
from .diagrams import (LeveledProgram, _evaluate, _norm_order, _whole_table, index_bits,
                       is_commutative, propagate)
from .errors import ShapeError, StructuralError


def _as_unitary(mat, dim, where):
    g = np.asarray(mat, dtype=np.complex128)
    if g.shape != (dim, dim):
        raise ShapeError("%s must be a %dx%d matrix" % (where, dim, dim))
    dev = float(np.max(np.abs(g.conj().T @ g - np.eye(dim))))
    if dev > limits.TOL:
        raise StructuralError(
            "%s deviates from unitarity by %.3g (tolerance %.1g)" % (where, dev, limits.TOL)
        )
    g = g.copy()
    g.setflags(write=False)
    return g


class QuantumProgram(LeveledProgram):
    """Leveled quantum program: pairs of unitaries per variable, one measurement.

    Amplitudes are column vectors (one step is `g @ state`), so a batch of row
    states is multiplied by `g.T`, and the lift's operators are the
    transposes of the classical row-vector ones."""

    __slots__ = ("dim", "initial", "accept")

    def __init__(self, n, dim, order, initial, steps, accept, k=1):
        self.n = int(n)
        self.dim = int(dim)
        if self.dim < 1:
            raise ShapeError("dimension must be positive")
        limits.check_program(self.n, self.dim, matrix=True)
        self.k = int(k)
        if self.k < 1:
            raise ShapeError("layer count must be >= 1")
        self.order = _norm_order(order, self.n)
        self.widths = (self.dim,) * (self.k * self.n + 1)
        self.layer_ends = (None,) * self.k
        vec = np.asarray(initial, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ShapeError("initial state must have length dim")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > limits.EXACT_TOL:
            raise StructuralError(
                "initial state norm %.15g is not 1 within %.1g" % (norm, limits.EXACT_TOL)
            )
        vec = vec.copy()
        vec.setflags(write=False)
        self.initial = vec
        if len(steps) != self.n:
            raise ShapeError("expected %d transition pairs, got %d" % (self.n, len(steps)))
        self.steps = tuple(
            (_as_unitary(g0, self.dim, "step %d bit-0 matrix" % (i + 1)),
             _as_unitary(g1, self.dim, "step %d bit-1 matrix" % (i + 1)))
            for i, (g0, g1) in enumerate(steps)
        )
        acc = frozenset(int(s) for s in accept)
        if any(not 1 <= s <= self.dim for s in acc):
            raise StructuralError("accepting set must be a subset of {1..dim}")
        self.accept = acc

    def pair_for_variable(self, var):
        """The transition pair applied when variable `var` is read."""
        return self.steps[self.order.position_of(var) - 1]

    def _pair(self, ell):
        return self.steps[ell % self.n]

    def _first(self, rows=None):
        return self.initial.copy() if rows is None else np.tile(self.initial, (rows, 1))

    def _act(self, states, g):
        return states @ np.swapaxes(g, -1, -2)   # g may be a stack of operators

    def _act_one(self, state, g):
        state = g @ state
        norm = math.sqrt(np.vdot(state, state).real)
        if abs(norm - 1.0) > limits.TOL:
            raise StructuralError("state norm drifted to %.15g during the run" % norm)
        return state

    def _readout(self, states):
        return np.sum(np.abs(states[..., [s - 1 for s in sorted(self.accept)]]) ** 2, axis=-1)

    @classmethod
    def _map_op(cls, m, width):
        op = np.zeros((width, m.shape[0]), dtype=np.complex128)
        op[m, np.arange(m.shape[0])] = 1
        return op

    @classmethod
    def _block_op(cls, ops, targets):
        q, w = len(ops), ops[0].shape[0]
        big = np.zeros((q, w, q, w), dtype=np.complex128)
        big[targets, :, np.arange(q), :] = np.stack(ops)
        return big.reshape(q * w, q * w)

    def _lifted(self, n, steps, layer_ends, nodes):
        initial = np.zeros(nodes.shape[0], dtype=np.complex128)
        initial[: self.dim] = self.initial
        return QuantumProgram(n=n, dim=nodes.shape[0], order=VarOrder.identity(n),
                              initial=initial, steps=steps, k=self.k,
                              accept=1 + np.flatnonzero(np.isin(nodes + 1, sorted(self.accept))))


def programs_equal(p, q):
    """Structural identity: same shape, order, initial, accept, and matrices."""
    if not (isinstance(p, QuantumProgram) and isinstance(q, QuantumProgram)):
        return False
    if (p.n, p.dim, p.k, p.order.perm, p.accept) != (q.n, q.dim, q.k, q.order.perm, q.accept):
        return False
    if not np.array_equal(p.initial, q.initial):
        return False
    return all(
        np.array_equal(a0, b0) and np.array_equal(a1, b1)
        for (a0, a1), (b0, b1) in zip(p.steps, q.steps)
    )


def accept_probability(program, x):
    """Apply the k*n unitaries selected by x, checking the norm after each;
    return accepting-subset mass. The per-input reference route."""
    return float(_evaluate(program, x))


def _acceptance_for_inputs(program, idx):
    """Acceptance probabilities of any program kind on the given input
    indexes (0/1 for deterministic and nondeterministic programs)."""
    return propagate(program, index_bits(idx, program.n)).astype(np.float64)


def acceptance_table(program):
    """Acceptance probability on every input, index = bin(x_1..x_n)."""
    return _whole_table(program).astype(np.float64)


@dataclass(frozen=True)
class UnitarityReport:
    max_deviation: float
    passed: bool
    matrices_checked: int


def check_unitary(program_or_matrices, tol=limits.TOL):
    """Max over matrices of max|G†G - I|; pass iff within tolerance.

    Accepts a QuantumProgram or an iterable of raw square matrices (the latter
    lets deliberately broken matrices be reported rather than rejected at
    construction).
    """
    if isinstance(program_or_matrices, QuantumProgram):
        mats = [g for pair in program_or_matrices.steps for g in pair]
    else:
        mats = [np.asarray(g, dtype=np.complex128) for g in program_or_matrices]
    worst = 0.0
    for g in mats:
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeError("unitarity check expects square matrices")
        dev = float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))))
        worst = max(worst, dev)
    return UnitarityReport(max_deviation=worst, passed=worst <= tol, matrices_checked=len(mats))


@dataclass(frozen=True)
class BoundedErrorVerdict:
    passed: bool
    min_one: float | None
    max_zero: float | None
    epsilon: float
    ones_checked: int
    zeros_checked: int


def computes_with_bounded_error(program, f, epsilon, samples=None, seed=0):
    """Verdict with worst-case margins: acceptance >= 1/2+eps on every defined
    1-input and <= 1/2-eps on every defined 0-input (within limits.TOL).

    Exhaustive over all 2**n inputs when `samples` is None (n <=
    limits.TABLE_CAP); otherwise checks `samples` seeded random inputs, and
    only those are propagated. Works for every program kind. Undefined points
    of a partial target are skipped.
    """
    n = program.n
    if not isinstance(f, (BoolFn, PartialBoolFn)):
        raise ShapeError("bounded-error target must be a truth-table function")
    if f.n != n:
        raise ShapeError("target arity does not match program arity")
    if samples is None:
        table, idx = acceptance_table(program), limits.table_indexes(n)
    else:
        limits.check(int(samples), limits.SAMPLE_CAP, "the sample count")
        idx = np.random.default_rng(seed).integers(0, 1 << n, size=int(samples), dtype=np.int64)
    if isinstance(f, PartialBoolFn):
        idx = idx[f.defined[idx] == 1]
    probs = table[idx] if samples is None else _acceptance_for_inputs(program, idx)
    vals = (f.values if isinstance(f, PartialBoolFn) else f.table)[idx]
    ones = probs[vals == 1]
    zeros = probs[vals == 0]
    min_one = float(ones.min()) if ones.size else None
    max_zero = float(zeros.max()) if zeros.size else None
    ok_one = min_one is None or min_one >= 0.5 + epsilon - limits.TOL
    ok_zero = max_zero is None or max_zero <= 0.5 - epsilon + limits.TOL
    return BoundedErrorVerdict(
        passed=bool(ok_one and ok_zero),
        min_one=min_one,
        max_zero=max_zero,
        epsilon=float(epsilon),
        ones_checked=int(ones.size),
        zeros_checked=int(zeros.size),
    )


def reorder_quantum(program, order2):
    """Program reading variables in order `order2`, using the pair each
    variable had in the original program. No commutativity gate: the point of
    the operation is also to EXPOSE non-commutative programs by comparison."""
    if not isinstance(order2, VarOrder):
        order2 = VarOrder(order2)
    if order2.n != program.n:
        raise ShapeError("new order length does not match n")
    steps = [program.pair_for_variable(v) for v in order2.perm]
    return QuantumProgram(
        n=program.n,
        dim=program.dim,
        order=order2,
        initial=program.initial,
        steps=steps,
        accept=program.accept,
        k=program.k,
    )


def is_commutative_quantum(program, trials=limits.COMMUTATIVITY_ORDERS, seed=0, tol=limits.TOL):
    """`diagrams.is_commutative`, under the name the benchmark still calls."""
    return is_commutative(program, trials=trials, seed=seed, tol=tol)


def _complex_to_pairs(arr):
    return [[float(z.real), float(z.imag)] for z in arr]


def _matrix_to_pairs(mat):
    return [_complex_to_pairs(row) for row in mat]


def _pairs_to_complex(pairs):
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def _pairs_to_matrix(pairs):
    return np.array(
        [[complex(re, im) for re, im in row] for row in pairs], dtype=np.complex128
    )


def to_json(program):
    """JSON text: dim, order, accept (1-indexed), initial, steps, layers, n."""
    doc = {
        "n": program.n,
        "dim": program.dim,
        "layers": program.k,
        "order": list(program.order.perm),
        "accept": sorted(program.accept),
        "initial": _complex_to_pairs(program.initial),
        "steps": [
            {"g0": _matrix_to_pairs(g0), "g1": _matrix_to_pairs(g1)}
            for g0, g1 in program.steps
        ],
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text):
    doc = json.loads(text) if isinstance(text, str) else text
    return QuantumProgram(
        n=doc["n"],
        dim=doc["dim"],
        order=doc["order"],
        initial=_pairs_to_complex(doc["initial"]),
        steps=[
            (_pairs_to_matrix(step["g0"]), _pairs_to_matrix(step["g1"]))
            for step in doc["steps"]
        ],
        accept=doc["accept"],
        k=doc.get("layers", 1),
    )
