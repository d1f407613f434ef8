"""DOP853 for linear systems, in numpy alone.

The explicit Runge-Kutta method of Dormand and Prince of order 8, with
error estimators of orders 5 and 3 and a dense output of order 7, as given
by Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
2nd ed. (Springer, 1993), sections II.5 and II.10; the coefficients are
those of Hairer's Fortran code DOP853, the starting step the heuristic of
section II.4.

The right side is linear and non-autonomous.  The n x (n + 1) block Y obeys

    Y' = M(t) Y + f(t) e^T,    Y(0) = [I | 0],

e the last unit vector: the forcing f enters the last column only, and
Y(t) = [Phi(t) | v(t)] is the fundamental matrix beside the forced response
from zero.  ``field`` is the ``model.Sampler`` of the stacked [M | f], of
shape (n, n + 1): ``field(t)`` forms it at an array of times, and
``field.apply(t, Y)`` gives the right side at states without forming it.
The block, its stages and the dense output take the dtype of the field's
coefficients: float64 for a real system.  The field does not depend on the
state, so the times t + c_i h of every stage are known before any stage is
formed, while each stage's state depends on the ones before it: one
``field`` call per attempted step serves all of its stages, and is the only
place a field grid is formed.  Every other right side (at the start, at the
trial point of the first step, at the extra stages of the dense output) is
``field.apply``.

A step runs on one buffer Z: row 0 is the state, row 1 + j the derivative
of stage j.  With the rows W = [1 | h A] of the tableau, scaled by h once
per attempted step, the state of stage s is W[s, :s+1] @ Z[:s+1], and it is
written into the first n rows of an augmented block whose last row is
e^T, so that [M | f] times that block is M Y + f e^T.  Each stage is thus
two numpy products, and the two error norms come from one reduction: the
interpreter, not arithmetic, bounds the cost of a step at these sizes.

Every stage is linear in the state, so the steps of the block, contracted
with z = [x0; 1], are the steps of the trajectory Y(t) z from x0, which
solves y' = M y + f.  The dense output is formed that way: the run keeps
the stages the interpolant reads and the field, and ``Trajectory.along(z)``
contracts the stages before it forms the three extra stages with
``field.apply``, at the cost of one trajectory.

Step-size control, as in DOP853: the error norm combines the order-5 and
order-3 estimates; a step is accepted when that norm is below 1, and the
next step is h * 0.9 * err^(-1/8), the factor clipped to [0.2, 10] and held
at most 1 right after a rejection.  A step that would fall below 10
floating-point spacings at t raises StepFailure; a non-finite state or error
estimate counts as a rejection first, so it ends there unless a shorter
step cures it.  So does a run still short of its end after MAX_STEPS steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .model import Sampler

# Nodes c_1..c_16 (0-based here).  Stage 12 (c = 1) is the end of the step,
# whose derivative the next step reuses; stages 13..15 serve the dense output.
C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

# The nonzero a_ij of each row i, as {j: a_ij}.  Row 12 is the weights b of
# the order-8 solution; rows 13..15 are the extra stages of the dense output.
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    {
        0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2,
    },
    {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022,
    },
    {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    },
    {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3,
        12: -8.298e-3,
    },
    {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878,
        7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138,
    },
)

A = np.zeros((len(_A_ROWS), len(_A_ROWS)))
for _i, _row in enumerate(_A_ROWS):
    for _j, _a in _row.items():
        A[_i, _j] = _a

# Stages of a step proper; the derivative at its end is stage STAGES.
STAGES = 12
B = A[STAGES, :STAGES]

# Error weights over stages 0..12.  E5 gives the order-5 estimate (Hairer's
# er1, er6..er12); E3 = b - bhat, where the order-3 weights bhat are
# nonzero in stages 0, 8 and 11 only (Hairer's bhh1..bhh3).
E5 = np.zeros(STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
E3 = np.zeros(STAGES + 1)
E3[:STAGES] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
_E = np.stack([E5, E3])

# The stage rows of A and the weights b, which ``solve`` scales by h, and
# the stage nodes c_1..c_12 at which it reads the field.
_AB = A[: STAGES + 1, :STAGES]
_C_STEP = C[1 : STAGES + 1]

# Dense output: the order-7 interpolant over a step has seven coefficient
# rows; the first three come from the end values and slopes, these four
# from all 16 stages (Hairer's d4*..d7*).  Stages 1..4 enter neither these
# rows nor the extra stages, so a dense run keeps only the others.
D = np.zeros((4, len(C)))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    (
        -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
        0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
    ),
    (
        0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
        0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
    ),
    (
        0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
        0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
    ),
    (
        -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
        0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
        0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
    ),
)

_KEPT = np.array([0, 5, 6, 7, 8, 9, 10, 11, 12])
_KEPT_ROWS = 1 + _KEPT  # their rows in the step buffer of ``solve``

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# The controlled error is O(h^8): the order-7 estimator's exponent.
_EXPONENT = -1.0 / 8.0

# Accepted steps after which a run gives up.  The benchmark's passes take at
# most 44 and a slowly decaying scalar at omega = 1e-3 about 8,000; an omega
# that needs more (18,000 at 3e-4, some 1e300 at 1e-300, the step bound by
# stability) fails in a fraction of a second instead of running on.
MAX_STEPS = 10_000


def _rms(v) -> float:
    return float(np.linalg.norm(v)) / math.sqrt(v.size)


@dataclass(frozen=True, eq=False)
class DenseOutput:
    """The order-7 interpolant of one trajectory over every step of a run.

    ``t`` holds the increasing step boundaries, ``y`` the states there,
    ``coeffs`` the seven coefficient rows of each step's interpolant.
    """

    t: np.ndarray
    y: np.ndarray
    coeffs: np.ndarray

    def __call__(self, t) -> np.ndarray:
        """States at any array of times, of shape (*shape(t), n).  A time on
        a step boundary is read from the step that starts there."""
        t = np.asarray(t, dtype=float)
        # The step of each time, counting only interior boundaries: times
        # before the first or after the last step belong to that step.
        seg = np.searchsorted(self.t[1:-1], t, side="right")
        x = ((t - self.t[seg]) / (self.t[seg + 1] - self.t[seg]))[..., None]
        coeffs = self.coeffs[seg]
        factors = (x, 1 - x)
        out = coeffs[..., 6, :] * x
        for i in range(1, 7):
            out += coeffs[..., 6 - i, :]
            out *= factors[i % 2]
        out += self.y[seg]
        return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Result of ``solve``: the accepted step boundaries ``t``, the block
    ``y`` = [Phi | v] at the last of them and the run's ``field``.  A dense
    run also keeps what ``along`` reads, the ``blocks`` at every boundary and
    the ``stages`` of each step that the interpolant reads (0 and 5..12);
    other runs keep neither.  Lists, not stacked arrays: stacking would copy
    the whole history."""

    t: np.ndarray
    y: np.ndarray
    field: Sampler
    blocks: list | None = None
    stages: list | None = None

    def along(self, z) -> DenseOutput:
        """The interpolant of the trajectory Y(t) z on this run's steps, for
        z = [x0; 1]: ``field.apply`` adds the forcing with weight 1, as the
        trajectory y' = M y + f from x0 has it.  Needs a dense run.

        The kept stages are contracted with z first, so the extra stages and
        the coefficients are formed for one vector per step."""
        z = np.asarray(z)
        y = np.stack([Y @ z for Y in self.blocks])
        h = np.diff(self.t)
        K = np.zeros((len(h), len(C), y.shape[1]), dtype=np.result_type(y, self.field.coeffs))
        K[:, _KEPT] = np.stack([k @ z for k in self.stages])
        hv = h[:, None]
        for s in range(STAGES + 1, len(C)):
            stage = y[:-1] + hv * (A[s, :s] @ K[:, :s])
            K[:, s] = self.field.apply(self.t[:-1] + C[s] * h, stage[..., None])[..., 0]
        dy = np.diff(y, axis=0)
        f_old, f_new = K[:, 0], K[:, STAGES]
        coeffs = np.empty((len(h), 7, dy.shape[1]), dtype=K.dtype)
        coeffs[:, 0] = dy
        coeffs[:, 1] = hv * f_old - dy
        coeffs[:, 2] = 2 * dy - hv * (f_new + f_old)
        coeffs[:, 3:] = h[:, None, None] * (D @ K)
        return DenseOutput(t=self.t, y=y, coeffs=coeffs)


def _initial_step(field, y0, f0, t1, max_step, tol) -> float:
    """Hairer's starting step from t = 0: h0 from the sizes of y0 and y0',
    then a bound from the change of y' over h0, for an error of order 7.
    Sizes that overflow or are NaN give a small or zero step, which the step
    loop then raises to its floor or rejects."""
    scale = tol * (1 + np.abs(y0))
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0 < h0 < math.inf:
        h0 = 1e-6
    h0 = min(h0, t1)
    f1 = field.apply(h0, y0 + h0 * f0)
    d = max(d1, _rms((f1 - f0) / scale) / h0)
    h1 = (0.01 / d) ** (-_EXPONENT) if d > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, t1, max_step)


def solve(field: Sampler, t1: float, *, tol: float, max_step: float,
          dense: bool = False) -> Trajectory:
    """Integrate Y' = M(t) Y + f(t) e^T from Y(0) = [I | 0] to a finite
    t1 > 0, each step within ``tol`` relative and absolute: the run ends at
    [Phi(t1) | v(t1)].

    ``field`` is the ``Sampler`` of [M | f], of shape (n, n + 1), in time:
    ``ProblemSpec.field_map(omega, omega)``.  The block takes the dtype of
    the field's coefficients.  ``dense`` keeps the history that
    ``Trajectory.along`` reads.  Raises StepFailure when the step size falls
    below 10 floating-point spacings at the current time, or when MAX_STEPS
    steps fall short of t1.
    """
    n = field.shape[0]
    dtype = np.result_type(float, field.coeffs)
    Y = np.eye(n, n + 1, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        # Z holds the state (row 0) and the derivative of stage j (row 1 + j)
        # as n x (n + 1) blocks; a stage's state is W[s, :s+1] @ Z[:s+1] with
        # the rows W = [1 | h A] of the step.  The stage state sits in the
        # first n rows of Xa, whose last row is e^T, so [M | f] @ Xa is the
        # right side with the forcing in the last column.  The field of a
        # step is copied into Fbuf, so that the views of every stage's
        # operands are formed once per run, not per step.
        Z = np.empty((STAGES + 2,) + Y.shape, dtype=dtype)
        Zflat = Z.reshape(STAGES + 2, -1)
        W = np.ones((STAGES + 1, STAGES + 1))
        Xa = np.zeros((n + 1, n + 1), dtype=dtype)
        Xa[n, n] = 1.0
        X, Xflat = Xa[:n], Xa[:n].reshape(-1)
        Fbuf = np.empty((STAGES,) + field.shape, dtype=dtype)
        e = np.empty((2, Y.size), dtype=dtype)
        ev = e.view(np.float64)  # complex entries as (re, im) pairs
        derivs = Zflat[1:]
        stages = [
            (W[s, : s + 1], Zflat[: s + 1], Fbuf[s - 1], Z[s + 1])
            for s in range(1, STAGES + 1)
        ]
        Z[0] = Y
        Z[1] = field.apply(0.0, Y)
        ts, ys, ks = [0.0], [Y], []
        t = 0.0
        finite = bool(np.isfinite(Z[1]).all())
        h = _initial_step(field, Y, Z[1], t1, max_step, tol)
        absY = np.abs(Y).reshape(-1)
        while t < t1:
            if len(ts) > MAX_STEPS:
                raise StepFailure(
                    f"integration stopped at t={t:.6g}: {MAX_STEPS} steps fell short "
                    f"of t={t1:.6g}",
                    t=t,
                )
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            if h > max_step:
                h = max_step
            elif h < min_step:
                h = min_step
            after_rejection = False
            while True:
                if not h >= min_step:  # also catches a NaN step
                    cause = "an error estimate above tolerance" if finite else (
                        "a non-finite state or error estimate")
                    raise StepFailure(
                        f"integration stalled at t={t:.6g}: the step size fell below "
                        f"10 floating-point spacings after {cause}",
                        t=t,
                    )
                t_new = t + h
                if t_new > t1:
                    t_new = t1
                h = t_new - t
                np.copyto(Fbuf, field(t + _C_STEP * h))
                np.multiply(_AB, h, out=W[:, 1:])
                # Stages 1..11, then the new state and its derivative (12).
                for w, head, F, out in stages:
                    np.dot(w, head, out=Xflat)
                    np.dot(F, Xa, out=out)
                absX = np.abs(Xflat)
                scale = np.maximum(absY, absX)
                scale += 1.0
                scale *= tol
                np.dot(_E, derivs, out=e)
                e /= scale
                err5, err3 = np.einsum("ij,ij->i", ev, ev).tolist()
                if err5 == 0 and err3 == 0:
                    err = 0.0
                else:
                    err = h * err5 / math.sqrt((err5 + 0.01 * err3) * Y.size)
                finite = math.isfinite(err) and bool(np.isfinite(X).all())
                if finite and err < 1:
                    factor = MAX_FACTOR if err == 0 else min(
                        MAX_FACTOR, SAFETY * err**_EXPONENT)
                    if after_rejection:
                        factor = min(1.0, factor)
                    h *= factor
                    break
                factor = max(MIN_FACTOR, SAFETY * err**_EXPONENT) if finite else MIN_FACTOR
                h *= factor
                after_rejection = True
            t, absY = t_new, absX
            ts.append(t)
            if dense:
                ys.append(X.copy())
                ks.append(Z[_KEPT_ROWS])
            Z[0] = X
            Z[1] = Z[STAGES + 1]
    if not dense:
        ys = ks = None
    return Trajectory(np.array(ts), Z[0].copy(), field, ys, ks)
