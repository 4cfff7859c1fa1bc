/* The search loops of dpoqubo.backends and the ground-state check's descent
   of dpoqubo.precision, on a symmetric n x n matrix q: the float operations
   of each Python loop, in its order.  A flip of bit or spin i touches row i
   of q only on its nonzero column span [lo[i], hi[i]).  In the solvers x is
   the assignment, g its gradient q x, diag the diagonal of the QUBO matrix
   and best the best assignment seen.  Build with -ffp-contract=off and
   without -ffast-math, so that every operation rounds on its own. */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* One chunk of SimulatedAnnealingSolver's sweeps.  Sweep s proposes the n
   flips idx[s n ...] at temperature t[s] with accept draws u[s n ...].
   e[0] is the running energy and e[1] the best energy. */
void anneal(int64_t n, int64_t sweeps, const int64_t *idx, const double *u,
            const double *t, const double *q, const double *diag,
            const int64_t *lo, const int64_t *hi, double *x, double *g,
            double *best, double *e)
{
    double energy = e[0], best_energy = e[1];
    for (int64_t s = 0; s < sweeps; s++) {
        for (int64_t k = s * n; k < (s + 1) * n; k++) {
            int64_t i = idx[k];
            const double *row = q + i * n;
            double d = diag[i];
            int set = x[i] != 0.0;
            double delta = set ? -(d + 2.0 * (g[i] - d)) : d + 2.0 * g[i];
            if (!(delta <= 0.0) && !(u[k] < exp(-delta / t[s])))
                continue; /* uphill, or NaN, and not accepted */
            x[i] = set ? 0.0 : 1.0;
            for (int64_t j = lo[i]; j < hi[i]; j++)
                g[j] = set ? g[j] - row[j] : g[j] + row[j];
            energy += delta;
            if (energy < best_energy) {
                best_energy = energy;
                memcpy(best, x, (size_t)n * sizeof(double));
            }
        }
    }
    e[0] = energy;
    e[1] = best_energy;
}

/* The flip delta of a bit at x with gradient g and diagonal entry d, as
   TabuSolver's sign form (g - dx) * sign2 + sdiag: three roundings. */
static double flip_delta(double g, double d, double x)
{
    double sign = 1.0 - 2.0 * x;
    return (g - d * x) * (2.0 * sign) + sign * d;
}

/* np.argmin of v[0..n): the first NaN, else the first of the lowest
   values.  With tabu, the value of each bit j with expires[j] > it is
   np.maximum(v[j], inf): +inf, or NaN for a NaN. */
static int64_t lowest(const double *v, int64_t n, int tabu,
                      const int64_t *expires, int64_t it)
{
    int64_t k = 0;
    double m = INFINITY;
    for (int64_t j = 0; j < n; j++) {
        double d = v[j];
        if (tabu && expires[j] > it && d == d)
            d = INFINITY;
        if (d != d)
            return j;
        if (d < m || j == 0) {
            m = d;
            k = j;
        }
    }
    return k;
}

/* TabuSolver's search: at most iterations steps from x, at energy energy,
   with tenure tenure.  work holds 2 n doubles (the flip deltas and the
   marked assignment) and ticks 2 n integers (each bit's iteration at which
   tabu ends and the marked remaining tenures).  Returns the number of
   iterations run, which is short of iterations when Brent's cycle
   detection finds the state at the top of an iteration equal to the
   mark's, taken at iterations 1, 2, 4, 8, ... */
int64_t tabu(int64_t n, int64_t iterations, int64_t tenure, double energy,
             const double *q, const double *diag, const int64_t *lo,
             const int64_t *hi, double *x, double *g, double *best,
             double *work, int64_t *ticks)
{
    double *deltas = work, *mark_x = work + n, best_energy = energy;
    int64_t *expires = ticks, *mark_tenures = ticks + n;
    int64_t mark_at = 1, span = 1, marked = 0, it;
    for (int64_t j = 0; j < n; j++) {
        expires[j] = 0;
        deltas[j] = flip_delta(g[j], diag[j], x[j]);
    }
    for (it = 0; it < iterations; it++) {
        if (marked) {
            int64_t j = 0;
            while (j < n && x[j] == mark_x[j])
                j++;
            if (j == n) {
                j = 0;
                while (j < n && (expires[j] > it ? expires[j] - it : 0) == mark_tenures[j])
                    j++;
                if (j == n)
                    break; /* the discrete state repeats */
            }
        }
        if (it == mark_at) {
            mark_at = it + span;
            span *= 2;
            marked = 1;
            memcpy(mark_x, x, (size_t)n * sizeof(double));
            for (int64_t j = 0; j < n; j++)
                mark_tenures[j] = expires[j] > it ? expires[j] - it : 0;
        }
        int64_t i = lowest(deltas, n, 0, expires, it);
        double delta = deltas[i];
        if (expires[i] > it && !(energy + delta < best_energy - 1e-12)) {
            /* no tabu bit aspirates: take the best non-tabu bit, if any */
            int64_t j = 0;
            while (j < n && expires[j] > it)
                j++;
            if (j < n) {
                i = lowest(deltas, n, 1, expires, it);
                delta = deltas[i];
            }
        }
        double s = 1.0 - 2.0 * x[i];
        const double *row = q + i * n;
        x[i] = x[i] + s;
        for (int64_t j = lo[i]; j < hi[i]; j++)
            g[j] = s > 0.0 ? g[j] + row[j] : g[j] - row[j];
        energy += delta;
        for (int64_t j = lo[i]; j < hi[i]; j++)
            deltas[j] = flip_delta(g[j], diag[j], x[j]);
        expires[i] = it + 1 + tenure;
        if (energy < best_energy) {
            best_energy = energy;
            memcpy(best, x, (size_t)n * sizeof(double));
        }
    }
    return it;
}

/* precision._greedy_descents: steepest single-flip descent of each of the
   rows spin vectors z[r n ...] (entries +-1.0) on the Ising couplings q,
   field[r n ...] holding the row's local fields linear + z q.  A row stops
   when no flip delta -2 z_j field_j is below -1e-12, or after cap flips.
   deltas holds n doubles of scratch.  Rows never interact in the batched
   loop, so running them one after another is exact.  n must be at least 1. */
void descend(int64_t rows, int64_t n, int64_t cap, const double *q,
             const int64_t *lo, const int64_t *hi, double *z, double *field,
             double *deltas)
{
    for (int64_t r = 0; r < rows; r++) {
        double *zr = z + r * n, *f = field + r * n;
        for (int64_t j = 0; j < n; j++)
            deltas[j] = (-2.0 * zr[j]) * f[j];
        for (int64_t t = 0; t < cap; t++) {
            int64_t b = lowest(deltas, n, 0, NULL, 0);
            if (!(deltas[b] < -1e-12))
                break;
            zr[b] = -zr[b];
            double step = 2.0 * zr[b];
            const double *row = q + b * n;
            for (int64_t j = lo[b]; j < hi[b]; j++)
                f[j] += step * row[j];
            for (int64_t j = lo[b]; j < hi[b]; j++)
                deltas[j] = (-2.0 * zr[j]) * f[j];
        }
    }
}
