"""C source for the compiled solver kernels (the ``jit`` backend).

Every function is a line-for-line transcription of a pure-Python reference
in :mod:`repro.core.vectorized`, :mod:`repro.core.blocks` or
:mod:`repro.utils.solvers`.  :mod:`repro.core.kernels._cffi_provider`
compiles this source; the load-time self-check in :mod:`repro.core.kernels`
compares the compiled output against the Python references before the
build is accepted, so numerical drift can disable the jit tier but never
corrupt results.

Bit-identity notes (the reason the transcriptions look pedantic):

* compiled with ``-O2 -ffp-contract=off`` so the evaluation order written
  here is the evaluation order executed -- no fused multiply-adds;
* CPython's ``float ** float`` calls libm ``pow`` for finite positive
  arguments, so ``pow()`` here produces the same bits as ``**`` there;
* ``min``/``max`` become ternaries with the same operand order Python
  uses, which matters at ties and for NaN propagation;
* the stable insertion sort mirrors ``list.sort`` (stable) on the end
  key, and ``bisect_left`` is the standard lower-bound search;
* candidate folds iterate ascending, matching the ``sorted(candidates)``
  folds in the Python paths.

``REPRO_KERNELS_ABI`` versions the C interface; it participates in the
compile-cache key, so bumping it on any signature change invalidates
stale shared objects automatically.
"""

from __future__ import annotations

__all__ = ["CDEF", "CSOURCE", "REPRO_KERNELS_ABI", "REPRO_MAX_SMALL"]

#: Bump on any change to the exported C signatures or their semantics.
REPRO_KERNELS_ABI = 2

#: Largest task count the fused overhead solve's stack buffers hold;
#: ``transition.solve_common_release_with_overhead`` sends larger jit
#: solves to the Python fused solve instead.
REPRO_MAX_SMALL = 64

CDEF = """
int repro_overhead_solve_small(
    int n, const double *rel, const double *dl, const double *wl,
    double latest_deadline,
    double alpha, double beta, double lam, double s_m, double s_up,
    double xi, double alpha_m, double xi_m,
    double rel_end,
    double *ends_out, int *order_out, double *best_out);

void repro_block_energy_batch(
    int n, const double *rel, const double *dl, const double *wl,
    double alpha, double beta, double lam, double s_m, double s_up,
    double alpha_m,
    int k, const double *starts, const double *ends, double *out);

void repro_solve_block_descent(
    int n, const double *rel, const double *dl, const double *wl,
    double alpha, double beta, double lam, double s_m, double s_up,
    double alpha_m,
    double x_lo, double x_hi, double y_lo, double y_hi,
    int n_starts, const double *sx, const double *sy,
    double tol, int max_rounds,
    double *out);

void repro_powersum_roots(
    int n, const double *vals, const double *wl,
    int k, const unsigned char *masks,
    const double *lo_in, const double *hi_in,
    double target, double lam, int mode,
    double tol, int max_iter,
    double *out);
"""

CSOURCE = r"""
#include <math.h>

#define REPRO_MAX_SMALL 64
#define REPRO_PENALTY 1e30

/* ---------------------------------------------------------------------
 * bisect_left over a sorted double array (std lower bound).
 * ------------------------------------------------------------------- */
static int repro_bisect_left(const double *a, int n, double x)
{
    int lo = 0, hi = n;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* ---------------------------------------------------------------------
 * Block energy objective -- transcribes blocks._block_energy_scalar.
 * ------------------------------------------------------------------- */
static double repro_block_energy_eval(
    int n, const double *rel, const double *dl, const double *wl,
    double alpha, double beta, double lam, double s_m, double s_up,
    double alpha_m,
    double start, double end)
{
    double total, violation;
    int i;
    if (end <= start)
        return REPRO_PENALTY * (1.0 + (start - end));
    total = alpha_m * (end - start);
    violation = 0.0;
    for (i = 0; i < n; i++) {
        double lo = rel[i] > start ? rel[i] : start;
        double hi = dl[i] < end ? dl[i] : end;
        double window = hi - lo;
        double w = wl[i];
        double min_duration = w / s_up;
        double eff, duration, speed;
        if (window < min_duration * (1.0 - 1e-12) - 1e-12) {
            violation += min_duration - window;
            continue;
        }
        eff = window > min_duration ? window : min_duration;
        if (alpha == 0.0) {
            duration = eff;
        } else {
            double filled = w / (dl[i] - rel[i]);
            double s0 = s_m > filled ? s_m : filled;
            double preferred;
            if (s0 > s_up) s0 = s_up;
            preferred = w / s0;
            if (preferred < min_duration) preferred = min_duration;
            duration = preferred < eff ? preferred : eff;
        }
        if (w == 0.0) continue;  /* execution_energy(0, *) == 0 */
        speed = w / duration;
        total += (alpha + beta * pow(speed, lam)) * w / speed;
    }
    if (violation > 0.0)
        return REPRO_PENALTY * (1.0 + violation);
    return total;
}

void repro_block_energy_batch(
    int n, const double *rel, const double *dl, const double *wl,
    double alpha, double beta, double lam, double s_m, double s_up,
    double alpha_m,
    int k, const double *starts, const double *ends, double *out)
{
    int p;
    for (p = 0; p < k; p++)
        out[p] = repro_block_energy_eval(
            n, rel, dl, wl, alpha, beta, lam, s_m, s_up, alpha_m,
            starts[p], ends[p]);
}

/* ---------------------------------------------------------------------
 * Golden-section line search over the block objective -- transcribes
 * solvers.golden_section_minimize applied to blocks._minimize_2d's line
 * closure (first-minimum-wins across [best, mid, lo, hi]).
 * ------------------------------------------------------------------- */
typedef struct {
    int n;
    const double *rel, *dl, *wl;
    double alpha, beta, lam, s_m, s_up, alpha_m;
    double x, y, dx, dy;
} repro_line_ctx;

static double repro_line_eval(const repro_line_ctx *c, double t)
{
    return repro_block_energy_eval(
        c->n, c->rel, c->dl, c->wl, c->alpha, c->beta, c->lam,
        c->s_m, c->s_up, c->alpha_m,
        c->x + t * c->dx, c->y + t * c->dy);
}

static double repro_golden_line(
    const repro_line_ctx *c, double lo, double hi, double tol,
    double *arg_out)
{
    const double g = (sqrt(5.0) - 1.0) / 2.0;
    double a, b, x1, x2, f1, f2, bx, bf, mid;
    double cand[3];
    int it, i;
    if (hi - lo <= tol) {
        double m = 0.5 * (lo + hi);
        *arg_out = m;
        return repro_line_eval(c, m);
    }
    a = lo; b = hi;
    x1 = b - g * (b - a);
    x2 = a + g * (b - a);
    f1 = repro_line_eval(c, x1);
    f2 = repro_line_eval(c, x2);
    if (f1 <= f2) { bx = x1; bf = f1; } else { bx = x2; bf = f2; }
    for (it = 0; it < 200; it++) {
        if (b - a <= tol) break;
        if (f1 <= f2) {
            b = x2; x2 = x1; f2 = f1;
            x1 = b - g * (b - a);
            f1 = repro_line_eval(c, x1);
            if (f1 < bf) { bf = f1; bx = x1; }
        } else {
            a = x1; x1 = x2; f1 = f2;
            x2 = a + g * (b - a);
            f2 = repro_line_eval(c, x2);
            if (f2 < bf) { bf = f2; bx = x2; }
        }
    }
    mid = 0.5 * (a + b);
    cand[0] = mid; cand[1] = lo; cand[2] = hi;
    for (i = 0; i < 3; i++) {
        double fv = repro_line_eval(c, cand[i]);
        if (fv < bf) { bf = fv; bx = cand[i]; }
    }
    *arg_out = bx;
    return bf;
}

/* One blocks._minimize_2d line() step: clip the ray to the box, golden
 * along it, move only on strict improvement (stay-guard). */
static double repro_descent_line(
    repro_line_ctx *c,
    double x_lo, double x_hi, double y_lo, double y_hi,
    double *x, double *y, double dx, double dy, double tol)
{
    double t_lo = -INFINITY, t_hi = INFINITY, t;
    double t_best, val, here;
    if (dx > 0.0) {
        t = (x_lo - *x) / dx; if (t > t_lo) t_lo = t;
        t = (x_hi - *x) / dx; if (t < t_hi) t_hi = t;
    } else if (dx < 0.0) {
        t = (x_hi - *x) / dx; if (t > t_lo) t_lo = t;
        t = (x_lo - *x) / dx; if (t < t_hi) t_hi = t;
    }
    if (dy > 0.0) {
        t = (y_lo - *y) / dy; if (t > t_lo) t_lo = t;
        t = (y_hi - *y) / dy; if (t < t_hi) t_hi = t;
    } else if (dy < 0.0) {
        t = (y_hi - *y) / dy; if (t > t_lo) t_lo = t;
        t = (y_lo - *y) / dy; if (t < t_hi) t_hi = t;
    }
    if (t_hi <= t_lo)
        return repro_block_energy_eval(
            c->n, c->rel, c->dl, c->wl, c->alpha, c->beta, c->lam,
            c->s_m, c->s_up, c->alpha_m, *x, *y);
    c->x = *x; c->y = *y; c->dx = dx; c->dy = dy;
    val = repro_golden_line(c, t_lo, t_hi, tol, &t_best);
    here = repro_block_energy_eval(
        c->n, c->rel, c->dl, c->wl, c->alpha, c->beta, c->lam,
        c->s_m, c->s_up, c->alpha_m, *x, *y);
    if (here <= val) return here;
    *x = *x + t_best * dx;
    *y = *y + t_best * dy;
    return val;
}

void repro_solve_block_descent(
    int n, const double *rel, const double *dl, const double *wl,
    double alpha, double beta, double lam, double s_m, double s_up,
    double alpha_m,
    double x_lo, double x_hi, double y_lo, double y_hi,
    int n_starts, const double *sx, const double *sy,
    double tol, int max_rounds,
    double *out)
{
    repro_line_ctx c;
    double best_x = 0.0, best_y = 0.0, best_v = 0.0;
    int have = 0, k, r;
    c.n = n; c.rel = rel; c.dl = dl; c.wl = wl;
    c.alpha = alpha; c.beta = beta; c.lam = lam;
    c.s_m = s_m; c.s_up = s_up; c.alpha_m = alpha_m;
    for (k = 0; k < n_starts; k++) {
        double x = sx[k], y = sy[k], value, nv, thresh;
        if (x < x_lo) x = x_lo;
        if (x > x_hi) x = x_hi;
        if (y < y_lo) y = y_lo;
        if (y > y_hi) y = y_hi;
        value = repro_block_energy_eval(
            n, rel, dl, wl, alpha, beta, lam, s_m, s_up, alpha_m, x, y);
        for (r = 0; r < max_rounds; r++) {
            repro_descent_line(&c, x_lo, x_hi, y_lo, y_hi, &x, &y, 1.0, 0.0, tol);
            repro_descent_line(&c, x_lo, x_hi, y_lo, y_hi, &x, &y, 0.0, 1.0, tol);
            repro_descent_line(&c, x_lo, x_hi, y_lo, y_hi, &x, &y, 1.0, 1.0, tol);
            nv = repro_descent_line(&c, x_lo, x_hi, y_lo, y_hi, &x, &y, -1.0, 1.0, tol);
            thresh = tol * fabs(value);
            if (tol > thresh) thresh = tol;
            if (value - nv <= thresh) {
                if (nv < value) value = nv;
                break;
            }
            value = nv;
        }
        if (!have || value < best_v) {
            have = 1; best_x = x; best_y = y; best_v = value;
        }
    }
    out[0] = best_x; out[1] = best_y; out[2] = best_v;
}

/* ---------------------------------------------------------------------
 * Section 7 scan objective at one candidate -- transcribes the fused
 * evaluation inside vectorized.overhead_solve_small.
 * ------------------------------------------------------------------- */
static double repro_overhead_objective(
    int n, const double *ends,
    const double *pe, const double *pb, const double *pg,
    const long long *po,
    const double *sw, const double *sm,
    double horizon,
    double alpha, double beta, double one_lam, double axi,
    double alpha_m, double am_xi, double up_thresh,
    int gapped, double rel_end, double delta)
{
    double busy = horizon - delta;
    double energy, trailing;
    int k, behind;
    if (busy <= 0.0) return INFINITY;
    k = repro_bisect_left(ends, n, busy);
    if ((po != 0 && po[k] > 0) || sm[k] > up_thresh * busy)
        return INFINITY;
    behind = n - k;
    energy = alpha_m * busy
        + alpha * pe[k]
        + pb[k]
        + alpha * (double)behind * busy
        + sw[k] * (beta * pow(busy, one_lam));
    trailing = rel_end - busy;
    if (trailing > 0.0) {
        if (alpha_m != 0.0) {
            double mt = alpha_m * trailing;
            energy += mt < am_xi ? mt : am_xi;
        }
        if (gapped) {
            double ct = alpha * trailing;
            energy += (double)behind * (ct < axi ? ct : axi);
        }
    }
    if (gapped) energy += pg[k];
    return energy;
}

/* ---------------------------------------------------------------------
 * Fused small-n Section 7 solve -- transcribes
 * vectorized.overhead_solve_small end to end.
 *
 * Returns 0 when a best candidate was found (best_out = {delta, energy,
 * case_index}), 1 when rel_end precedes the schedule end (caller maps to
 * best=None), 2 when no case yields a candidate, and -1 on bad n.
 * ------------------------------------------------------------------- */
int repro_overhead_solve_small(
    int n, const double *rel, const double *dl, const double *wl,
    double latest_deadline,
    double alpha, double beta, double lam, double s_m, double s_up,
    double xi, double alpha_m, double xi_m,
    double rel_end,
    double *ends_out, int *order_out, double *best_out)
{
    double ends[REPRO_MAX_SMALL], wls[REPRO_MAX_SMALL];
    int order[REPRO_MAX_SMALL];
    double pe[REPRO_MAX_SMALL + 1], pb[REPRO_MAX_SMALL + 1];
    double pg[REPRO_MAX_SMALL + 1];
    long long po[REPRO_MAX_SMALL + 1];
    double sw[REPRO_MAX_SMALL + 1], smx[REPRO_MAX_SMALL + 1];
    double release, horizon, one_lam, up_thresh, axi, am_xi;
    double shift, beta_lam, inv_lam;
    double acc_e, acc_b, acc_g;
    double kinks[3];
    double best_delta = 0.0, best_energy = 0.0;
    int best_case = 0, found = 0;
    int gapped, overspeed, i, j;

    if (n < 1 || n > REPRO_MAX_SMALL) return -1;
    release = rel[0];

    /* -- geometry: natural end w/s_c per task (s_c of Section 7) -- */
    if (alpha == 0.0) {
        for (i = 0; i < n; i++) {
            ends[i] = dl[i] - release;
            order[i] = i;
            wls[i] = wl[i];
        }
    } else {
        double outer = latest_deadline - release;
        double reference = s_m < s_up ? s_m : s_up;  /* min(s_m, s_up) */
        int has_ref = s_m > 0.0;
        for (i = 0; i < n; i++) {
            double w = wl[i];
            double filled = w / (dl[i] - rel[i]);
            double candidate = s_m > filled ? s_m : filled;
            double ref, s_c;
            if (candidate > s_up) candidate = s_up;
            ref = has_ref ? reference : candidate;
            if (ref <= 0.0 || outer - w / ref >= xi)
                s_c = candidate;
            else
                s_c = filled < s_up ? filled : s_up;
            ends[i] = w / s_c;
            order[i] = i;
            wls[i] = w;
        }
    }

    /* -- stable insertion sort by natural end (matches list.sort) -- */
    for (i = 1; i < n; i++) {
        double ev = ends[i], wv = wls[i];
        int ov = order[i];
        j = i - 1;
        while (j >= 0 && ends[j] > ev) {
            ends[j + 1] = ends[j];
            order[j + 1] = order[j];
            wls[j + 1] = wls[j];
            j--;
        }
        ends[j + 1] = ev;
        order[j + 1] = ov;
        wls[j + 1] = wv;
    }
    horizon = ends[n - 1];
    for (i = 0; i < n; i++) {
        ends_out[i] = ends[i];
        order_out[i] = order[i];
    }
    if (rel_end < horizon - 1e-9) return 1;

    /* -- prefix/suffix tables (Eq. (8) power-sum structure) -- */
    one_lam = 1.0 - lam;
    up_thresh = s_up * (1.0 + 1e-9);
    gapped = (alpha != 0.0) && (xi != 0.0);
    axi = alpha * xi;
    pe[0] = 0.0; pb[0] = 0.0; pg[0] = 0.0;
    acc_e = 0.0; acc_b = 0.0; acc_g = 0.0;
    overspeed = 0;
    for (i = 0; i < n; i++) {
        double end = ends[i], w = wls[i];
        acc_e += end;
        pe[i + 1] = acc_e;
        acc_b += (beta * pow(w, lam)) * pow(end, one_lam);
        pb[i + 1] = acc_b;
        if (gapped) {
            double gap = rel_end - end;
            if (gap > 0.0) {
                double ag = alpha * gap;
                acc_g += ag < axi ? ag : axi;
            }
            pg[i + 1] = acc_g;
        }
        if (w / end > up_thresh) overspeed = 1;
    }
    if (overspeed) {
        long long acc_o = 0;
        po[0] = 0;
        for (i = 0; i < n; i++) {
            acc_o += (wls[i] / ends[i] > up_thresh) ? 1 : 0;
            po[i + 1] = acc_o;
        }
    }
    sw[n] = 0.0; smx[n] = 0.0;
    for (j = n - 1; j >= 0; j--) {
        double wj = wls[j], prev = smx[j + 1];
        sw[j] = sw[j + 1] + pow(wj, lam);
        smx[j] = prev >= wj ? prev : wj;
    }

    am_xi = alpha_m * xi_m;
    shift = rel_end - horizon;
    beta_lam = beta * (lam - 1.0);
    inv_lam = 1.0 / lam;
    kinks[0] = 0.0;
    kinks[1] = xi - shift;
    kinks[2] = xi_m - shift;

    /* -- case sweep: i tasks aligned to the busy end -- */
    for (i = 1; i <= n; i++) {
        double lo = horizon - ends[i - 1];
        double cap = horizon - smx[i - 1] / s_up;
        double hi = (i == 1) ? INFINITY : horizon - ends[i - 2];
        double factor, coeffs[3], cand[8];
        int nc = 0, c, a, b, aligned;
        if (cap < hi) hi = cap;
        if (horizon < hi) hi = horizon;
        if (hi < lo) continue;
        aligned = n - i + 1;
        cand[nc++] = lo;
        cand[nc++] = isfinite(hi) ? hi : lo;
        factor = beta_lam * sw[i - 1];
        coeffs[0] = (double)aligned * alpha + alpha_m;  /* both sleep */
        coeffs[1] = alpha_m;                            /* cores idle awake */
        coeffs[2] = (double)aligned * alpha;            /* memory stays awake */
        for (c = 0; c < 3; c++) {
            if (coeffs[c] > 0.0) {
                double point = horizon - pow(factor / coeffs[c], inv_lam);
                if (point < lo) point = lo;
                if (point > hi) point = hi;
                cand[nc++] = point;
            }
        }
        for (c = 0; c < 3; c++) {
            if (lo <= kinks[c] && kinks[c] <= hi)
                cand[nc++] = kinks[c];
        }
        /* ascending fold == Python's sorted(candidates); equal values are
         * adjacent and the strict-improvement rule ignores duplicates */
        for (a = 1; a < nc; a++) {
            double v = cand[a];
            b = a - 1;
            while (b >= 0 && cand[b] > v) {
                cand[b + 1] = cand[b];
                b--;
            }
            cand[b + 1] = v;
        }
        for (c = 0; c < nc; c++) {
            double delta = cand[c];
            double energy = repro_overhead_objective(
                n, ends, pe, pb, gapped ? pg : 0, overspeed ? po : 0,
                sw, smx, horizon, alpha, beta, one_lam, axi,
                alpha_m, am_xi, up_thresh, gapped, rel_end, delta);
            if (!found || energy < best_energy - 1e-12) {
                found = 1;
                best_delta = delta;
                best_energy = energy;
                best_case = i;
            }
        }
    }
    if (!found) return 2;
    best_out[0] = best_delta;
    best_out[1] = best_energy;
    best_out[2] = (double)best_case;
    return 0;
}

/* ---------------------------------------------------------------------
 * Batched power-sum root finds -- transcribes solvers.bisect_increasing
 * over the alpha=0 head-slope / tail-condition closures of
 * blocks._solve_cell_alpha_zero.  mode 0: head (vals are deadlines,
 * f(s) = sum((w/(d-s))^lam) - target, empty head -> +inf).  mode 1: tail
 * (vals are releases, f(e) = target - sum((w/(e-r))^lam), empty tail ->
 * -inf).
 * ------------------------------------------------------------------- */
static double repro_powersum_eval(
    int n, const double *vals, const double *wl,
    const unsigned char *mask, double lam, double target,
    int mode, double x)
{
    double acc = 0.0;
    int i;
    if (mode == 0) {
        for (i = 0; i < n; i++) {
            double len;
            if (!mask[i]) continue;
            len = vals[i] - x;
            if (len <= 0.0) return INFINITY;
            acc += pow(wl[i] / len, lam);
        }
        return acc - target;
    }
    for (i = 0; i < n; i++) {
        double len;
        if (!mask[i]) continue;
        len = x - vals[i];
        if (len <= 0.0) return -INFINITY;
        acc += pow(wl[i] / len, lam);
    }
    return target - acc;
}

void repro_powersum_roots(
    int n, const double *vals, const double *wl,
    int k, const unsigned char *masks,
    const double *lo_in, const double *hi_in,
    double target, double lam, int mode,
    double tol, int max_iter,
    double *out)
{
    int p;
    for (p = 0; p < k; p++) {
        const unsigned char *mask = masks + (long)p * n;
        double lo = lo_in[p], hi = hi_in[p];
        double flo, fhi;
        int it, done = 0;
        flo = repro_powersum_eval(n, vals, wl, mask, lam, target, mode, lo);
        if (flo >= 0.0) { out[p] = lo; continue; }
        fhi = repro_powersum_eval(n, vals, wl, mask, lam, target, mode, hi);
        if (fhi <= 0.0) { out[p] = hi; continue; }
        for (it = 0; it < max_iter; it++) {
            double mid = 0.5 * (lo + hi);
            double fmid;
            if (hi - lo <= tol) { out[p] = mid; done = 1; break; }
            fmid = repro_powersum_eval(n, vals, wl, mask, lam, target, mode, mid);
            if (fmid < 0.0) lo = mid; else hi = mid;
        }
        if (!done) out[p] = 0.5 * (lo + hi);
    }
}
"""
