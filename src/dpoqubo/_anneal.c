/* One chunk of simulated-annealing sweeps for dpoqubo.backends: the float
   operations of SimulatedAnnealingSolver's span loop, in its order, on a
   symmetric n x n QUBO matrix q.  Sweep s proposes the n flips idx[s n ...]
   at temperature t[s] with accept draws u[s n ...].  x is the assignment, g
   its gradient q x and e[0] its running energy; best and e[1] are the best
   assignment and its energy.  A flip of bit i moves g by row i of q on its
   nonzero column span [lo[i], hi[i]).  Build with -ffp-contract=off and
   without -ffast-math, so that every operation rounds on its own. */
#include <math.h>
#include <stdint.h>
#include <string.h>

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
