"""Bob/Eve channel coupling and frequency-offset optimization.

The squared coupling ``g = |h_eve^H h_bob|^2`` between the noise-normalized
channels factors as ``g = K |sum_n alpha_n exp(j omega_n f_n)|^2``, where the
geometry-only coefficients ``Scenario.omega`` and ``Scenario.alpha`` and the
prefactor ``RfParams.coupling_prefactor`` (K) are computed once by their
dataclasses.  Time drops out entirely, so minimizing g over the per-element
frequencies is a purely geometric problem.  The minimization runs as cyclic
coordinate descent where each 1-D subproblem has a closed-form solution.

The descent caches one array of per-element terms ``alpha_n exp(j phi_n)``
with ``phi_n = omega_n f_n`` and rewrites entry n only when an update of f_n
is accepted; their real and imaginary parts, ``alpha_n cos(phi_n)`` and
``alpha_n sin(phi_n)`` bit for bit, are kept as Python floats.  Each
coordinate needs both parts summed in index order over every element but
its own (its rest), and each re-evaluation (``kernels.coupling_power``)
sums all N terms.  numpy sums a row with its pairwise sum, which below 8
values is a plain left-to-right loop from +0.0 and from 8 values on adds
into eight interleaved partial sums.  So at N <= 8, where a rest holds at
most 7 values, the descent adds the other elements' Python floats in index
order onto 0.0.  Starting at 0.0, not at the first value, is what numpy
does: it turns a lone -0.0 into +0.0 and gives the empty rest at N = 1 the
value 0.0.  From N = 9 on, a (2, N - 1) buffer holds the real and imaginary
parts of the rest, and one numpy reduce over its last axis sums both rows.
Either way the sums are those of recomputing every phase per update, so
offsets and objective values are bit for bit those of that full-recompute
form (``tests/helpers.py`` keeps it as the oracle).  A running sum would
make the update O(1), but its ulp drift decides the outcome at the
cancellation floor, where the reachable couplings are roundoff noise.

At N = 128 a visit's fixed work is the rest's reduce, which costs about
0.9 us, while the kernel call (about 1.4 us) runs only on the visits that
make a trial, about half of them (2 vCPUs, numpy 2.4.6).  So the buffered
visit allocates nothing: it writes its two slots through a flat
``memoryview`` of the buffer (row 1 starts at slot N - 1), reduces the
buffer into a (2,) array made once per descent,
``np.add.reduce(rest, 1, None, sums)``, and reads both sums through a
``memoryview`` of that array.  A reduce that returns a new array, read
with ``.tolist()``, costs about 0.1 us more per visit, and two numpy
scalar writes 0.03 us more.  A memoryview of a float64 buffer reads and
writes the exact doubles, as ``.tolist()`` and numpy's scalar setitem do,
and the reduce into ``sums`` adds each row as the plain row reduce does
(``tests/test_coupling.py`` pins both).  On both sides of N = 9 the visit
takes the argmin of the cosine on its window inline: the smallest odd
multiple of pi from the lower bound on, else the endpoint with the smaller
cosine.  Its bounds are finite and in order, so it checks nothing; the
checked form lives with the full-recompute oracle in ``tests/helpers.py``,
so the oracle does not share that step with the descent it checks.

A trial term is ``alpha_n * cmath.exp(1j * (omega_n f))`` on Python floats.
Like numpy's scalar ``np.exp``, ``cmath.exp`` takes the libm cosine and sine
of the phase times ``exp(0) = 1``, and both multiply by ``alpha_n`` as a
complex product, so the terms have the same bits (``tests/test_coupling.py``
checks 10^5 draws).  A coordinate's evaluation reads only the cached terms,
its own frequency and the current coupling, and all of them change only when
an update is accepted.  So an evaluation repeats the coordinate's last
outcome exactly when the N - 1 visits since then accepted nothing, which
makes every later visit of that sweep repeat too: a full cycle accepts
nothing, the sweep changes nothing, and the convergence test ends the
descent with it.  The descent counts the visits since the last accepted
update (``quiet``), the rejections since it (``refusals``) and ``refusals``
at the sweep's start (``carried``).  The first visit after the first sweep
that finds ``quiet >= N - 1`` is that of the coordinate of the last
accepted update, one sweep on.  There the descent appends g once per
remaining coordinate, adds ``carried`` to the rejection count (the
rejections those coordinates made after that update, which they would
repeat) and leaves the loop.

A descent without an initial plan starts every frequency at the Python float
f_c, whose product with omega has the bits of omega times an array of f_c.
At N <= 8 numpy builds only the array of terms and the returned offsets.
The start terms take the trial-term form, one ``cmath.exp`` per element on
the Python floats of omega, alpha and the start frequencies, which has the
bits of numpy's array expression too (``tests/test_coupling.py`` checks
10^5 draws as one array and as arrays of every width up to 8), and the end
frequencies are clamped into [0, f_m] as Python floats by
``min(f_m, max(0.0, f - f_c))``, which is numpy's
``np.minimum(np.maximum(f - f_c, 0.0), f_m)`` bit for bit, signed zeros
included.  From N = 9 on the start and the clamp stay numpy array
expressions: per-element Python there made ``descent_large`` (N = 32 and
128) slower.  Either way the descent returns the offsets as a read-only
plan without copying or checking them again (``FrequencyPlan._bounded``
says why they need no check).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .scenario import FrequencyPlan, Scenario, _count, _is_finite, _plan_offsets

# Largest N whose rests (N - 1 values) numpy sums left to right from +0.0.
_SERIAL_REST_MAX_N = 8
# Per N <= _SERIAL_REST_MAX_N and element i, every other element's index in
# index order.
_OTHERS = [[[j for j in range(n) if j != i] for i in range(n)]
           for n in range(_SERIAL_REST_MAX_N + 1)]


@dataclass
class OptimizerTrace:
    """Convergence record of :func:`optimize_offsets`.

    ``objective_history`` holds the coupling value before any update followed
    by one entry per inner (single-coordinate) update.  ``rejected_updates``
    counts the updates whose re-evaluated coupling came out higher, which
    only happens at the cancellation floor; they keep the old frequency.
    """

    objective_history: list = field(default_factory=list)
    outer_iterations: int = 0
    converged: bool = False
    rejected_updates: int = 0


def g_value(scenario: Scenario, plan: FrequencyPlan) -> float:
    """Squared coupling |h_eve^H h_bob|^2 of the normalized channels.

    Computed through the geometric factorization, which is exactly
    time-invariant; it agrees with the direct inner product of
    :func:`fdabeam.scenario.channel_pair` vectors at any t.
    """
    freqs = scenario.rf.carrier_frequency + _plan_offsets(scenario, [plan])[0]
    terms = scenario.alpha * np.exp(1j * (scenario.omega * freqs))
    return scenario.rf.coupling_prefactor * kernels.coupling_power(terms)


def optimize_offsets(scenario: Scenario, initial: FrequencyPlan | None = None,
                     tol: float = 1e-8,
                     max_outer: int = 50) -> tuple[FrequencyPlan, OptimizerTrace]:
    """Cyclic coordinate descent on the coupling over the offset box.

    Sweeps elements in order, replacing each frequency by its closed-form
    conditional minimizer; every step is a global 1-D minimum, so the
    objective never increases.  Stops once the relative decrease over a full
    sweep drops to ``tol`` or below, or after ``max_outer`` sweeps.

    The descent starts at ``initial`` (checked against the scenario's array
    and offset budget) or, without one, at f_c on every element.  Returns
    the final plan, whose read-only offsets are the end frequencies minus
    f_c clamped into [0, f_m] (at ``max_outer=0``, the clamped start),
    together with an :class:`OptimizerTrace`.
    """
    if not (_is_finite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative")
    max_outer = _count(max_outer, "max_outer must be a non-negative integer", low=0)
    rf = scenario.rf
    n_elem = scenario.array.element_count
    f_lo = rf.carrier_frequency
    f_hi = rf.carrier_frequency + rf.max_offset
    serial = n_elem <= _SERIAL_REST_MAX_N
    if initial is None:
        freqs, fr = f_lo, [f_lo] * n_elem
    else:
        freqs = f_lo + _plan_offsets(scenario, [initial])[0]
        fr = freqs.tolist()

    omega, pref = scenario.omega, rf.coupling_prefactor
    om, al = omega.tolist(), scenario.alpha.tolist()
    reduce, atan2, exp = np.add.reduce, math.atan2, cmath.exp
    ceil, cos, pi = math.ceil, math.cos, math.pi
    # (|omega_n|, sign of omega_n, |omega_n| f_lo, |omega_n| f_hi) per
    # element, or None where every f in the box is optimal.
    steps = [None if w == 0.0 or rf.max_offset == 0.0
             else (abs(w), math.copysign(1.0, w), abs(w) * f_lo, abs(w) * f_hi)
             for w in om]
    # Per-element terms of the coupling sum at the current frequencies, and
    # their real and imaginary parts; entry n changes only when an update of
    # f_n is accepted.
    if serial:
        start = [a * exp(1j * (w * f)) for a, w, f in zip(al, om, fr)]
        terms = np.array(start)
        re, im = [t.real for t in start], [t.imag for t in start]
        others = _OTHERS[n_elem]
        rest = None
    else:
        terms = scenario.alpha * np.exp(1j * (omega * freqs))
        re, im = terms.real.tolist(), terms.imag.tolist()
        # Rows 0 and 1 hold re and im without entry i, in index order: moving
        # on to i + 1 writes entry i into the slot that held entry i + 1.
        rest = np.empty((2, n_elem - 1))
        rest_re, rest_im = rest[0], rest[1]
        # The rest's doubles row after row (entry i of row 1 is slot
        # N - 1 + i) and its two row sums, written and read as Python floats.
        slots = memoryview(rest).cast("B").cast("d")
        sums = np.empty(2)
        rest_sums = memoryview(sums)
    # Looked up per call, so that a wrapper installed on the kernels module
    # sees every evaluation.
    coupling_power = kernels.coupling_power
    g = pref * coupling_power(terms)
    history = [g]
    append = history.append
    # Replay bookkeeping (the module docstring has the rule): the visits and
    # the rejections since the last accepted update.
    last = n_elem - 1
    quiet = refusals = rejected = 0
    converged = False
    outer = 0
    while outer < max_outer and not converged:
        outer += 1
        g_before = g
        carried = refusals
        if rest is not None:
            rest_re[:] = re[1:]
            rest_im[:] = im[1:]
        for i, step in enumerate(steps):
            if quiet >= last and outer > 1:
                # A full cycle accepted nothing: this and every later
                # coordinate would repeat its evaluation of the previous sweep.
                history += [g] * (n_elem - i)
                rejected += carried
                break
            quiet += 1
            if i and rest is not None:
                slots[i - 1] = re[i - 1]
                slots[last + i - 1] = im[i - 1]
            if step is not None:
                # a + jb is the coupling sum over every other element, so the
                # part that depends on f is hypot(a, b) cos(|omega_i| f - phase).
                if rest is None:
                    a = b = 0.0
                    for j in others[i]:
                        a += re[j]
                        b += im[j]
                else:
                    reduce(rest, 1, None, sums)
                    a, b = rest_sums
                if a != 0.0 or b != 0.0:
                    w, sign, x_lo, x_hi = step
                    phase = sign * atan2(b, a)
                    # The argmin of cos on [lower, upper], both finite:
                    # the smallest odd multiple of pi from lower on (k | 1
                    # rounds k up to odd), lower where that multiple rounds
                    # to just below it, else the endpoint with the smaller
                    # cosine.
                    lower = x_lo - phase
                    upper = x_hi - phase
                    x = (ceil(lower / pi) | 1) * pi
                    if x <= upper:
                        if x < lower:
                            x = lower
                    elif cos(lower) <= cos(upper):
                        x = lower
                    else:
                        x = upper
                    f_new = (x + phase) / w
                    if f_new < f_lo:
                        f_new = f_lo
                    elif f_new > f_hi:
                        f_new = f_hi
                    # An unchanged frequency re-evaluates to the current value.
                    if f_new != fr[i]:
                        term = al[i] * exp(1j * (om[i] * f_new))
                        terms[i] = term
                        g_trial = pref * coupling_power(terms)
                        if g_trial > g:
                            # The exact 1-D update cannot increase the
                            # objective, so any recorded increase is
                            # evaluation noise at the cancellation floor;
                            # keep the previous frequency.
                            terms[i] = complex(re[i], im[i])
                            rejected += 1
                            refusals += 1
                        else:
                            fr[i] = f_new
                            re[i] = term.real
                            im[i] = term.imag
                            g = g_trial
                            quiet = refusals = 0
            append(g)
        if g_before - g <= tol * g_before:
            converged = True

    # Every frequency is >= f_c, so f - f_c is never -0.0, and RfParams
    # stores f_m = +0.0 for -0.0; the clamp bounds every offset, so the plan
    # skips FrequencyPlan's checks.  min(f_m, x) and max(0.0, x) are
    # np.minimum(x, f_m) and np.maximum(x, 0.0) bit for bit, signed zeros
    # included.
    if serial:
        f_m = rf.max_offset
        offsets = np.array([min(f_m, max(0.0, f - f_lo)) for f in fr])
    else:
        offsets = np.minimum(np.maximum(np.array(fr) - f_lo, 0.0), rf.max_offset)
    trace = OptimizerTrace(objective_history=history, outer_iterations=outer,
                           converged=converged, rejected_updates=rejected)
    return FrequencyPlan._bounded(offsets), trace
