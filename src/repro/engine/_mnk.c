/* Compiled exact-multinomial kernel for the occupancy engines.
 *
 * One sampler, exact (no normal approximations):
 *
 *   mnk_sample_banded  — pooled O(m)-draw sampler for banded outcome
 *                        matrices Q[a,b] = lo[b] (b<a) / hi[b] (b>a) /
 *                        diag[a] (b=a) up to per-row normalization, the
 *                        structure shared by every built-in occupancy rule.
 *                        Per source bin a trinomial split decides how many
 *                        balls go below / stay / go above; the below-movers
 *                        of all bins then land via one pooled downward
 *                        hazard walk (and symmetrically upward):
 *                        P(land at b | going below from a) = lo[b]/Lo[a-1]
 *                        with Lo[b] = sum_{j<=b} lo[j], and the walk's
 *                        conditional hazard lo[b]/Lo[b] telescopes to
 *                        exactly that law.  Balls are conditionally
 *                        independent given the pre-round occupancy, so
 *                        pooling across source bins is exact.  Row
 *                        normalization divides every ratio's numerator and
 *                        denominator by the same row total, so the
 *                        normalized and unnormalized profiles sample the
 *                        same law.
 *
 * Binomial draws use Hormann's BTRS transformed rejection (valid for
 * n*p >= 10, p <= 0.5; squeeze-accept fast path needs no transcendentals)
 * and unrolled CDF inversion below that, with p > 1/2 handled by the flip
 * symmetry k ~ n - Binomial(n, 1-p).  log(k!) comes from a 1024-entry table
 * plus a Stirling series (absolute error < 1e-12, far below the rejection
 * test's tolerance).
 *
 * RNG: xoshiro256++ seeded through splitmix64.  The caller draws one uint64
 * from its NumPy Generator per kernel call and passes it through
 * mnk_seed_state, so reproducibility is seed-exact *within* this backend
 * (the bit stream legitimately differs from NumPy's own multinomial).
 *
 * ABI: bump MNK_ABI_VERSION whenever an entry point is added, removed or
 * changes signature; the Python seam builds one shared object per version
 * and refuses to load a mismatched one (falling back to NumPy).
 */

#include <stdint.h>
#include <stdlib.h>
#include <math.h>
#include <string.h>

#define MNK_ABI_VERSION 2

int64_t mnk_abi_version(void) { return MNK_ABI_VERSION; }

/* ---------------------------------------------------------------- RNG -- */

typedef struct { uint64_t s[4]; } xo256;

static inline uint64_t rotl(const uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

static inline uint64_t xo_next(xo256 *st) {
    const uint64_t r = rotl(st->s[0] + st->s[3], 23) + st->s[0];
    const uint64_t t = st->s[1] << 17;
    st->s[2] ^= st->s[0]; st->s[3] ^= st->s[1];
    st->s[1] ^= st->s[2]; st->s[0] ^= st->s[3];
    st->s[2] ^= t;        st->s[3] = rotl(st->s[3], 45);
    return r;
}

static inline double xo_double(xo256 *st) {
    return (xo_next(st) >> 11) * 0x1.0p-53;
}

static uint64_t splitmix64(uint64_t *x) {
    uint64_t z = (*x += 0x9E3779B97f4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

void mnk_seed_state(uint64_t seed, uint64_t *out4) {
    uint64_t sm = seed;
    out4[0] = splitmix64(&sm); out4[1] = splitmix64(&sm);
    out4[2] = splitmix64(&sm); out4[3] = splitmix64(&sm);
}

/* ------------------------------------------------------------- log(k!) -- */

#define LFACT_N 1024
static double lfact_tab[LFACT_N];
static int lfact_ready = 0;

static void init_tables(void) {
    if (lfact_ready) return;
    lfact_tab[0] = 0.0;
    for (int i = 1; i < LFACT_N; i++)
        lfact_tab[i] = lfact_tab[i - 1] + log((double)i);
    lfact_ready = 1;
}

/* log(k!): table for small k, Stirling series otherwise (|err| < 1e-12). */
static inline double lfact(double k) {
    if (k < (double)LFACT_N) return lfact_tab[(int64_t)k];
    const double kk = k + 1.0, kk2 = kk * kk;
    return (kk - 0.5) * log(kk) - kk + 0.9189385332046727
           + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kk2) / kk2) / kk;
}

/* ------------------------------------------------------ binomial draws -- */

static int64_t binom_inversion(xo256 *st, int64_t n, double p) {
    const double q = 1.0 - p, s = p / q;
    double f = exp((double)n * log1p(-p));
    double u = xo_double(st);
    int64_t x = 0;
    const double a = (double)(n + 1) * s;
    for (;;) {
        if (u <= f) return x;
        u -= f; x += 1;
        f *= (a / (double)x - s);
        if (x >= n) return n;
    }
}

/* Hormann (1993) BTRS transformed rejection with squeeze-accept fast path.
 * Valid for n*p >= 10, p <= 0.5; the squeeze accepts ~86% of attempts with
 * zero transcendental calls, and the slow-path constants are computed lazily
 * on the first non-squeeze attempt. */
static int64_t binom_btrs(xo256 *st, int64_t n, double p) {
    const double nf = (double)n, q = 1.0 - p;
    const double spq = sqrt(nf * p * q);
    const double b = 1.15 + 2.53 * spq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = nf * p + 0.5;
    const double vr = 0.92 - 4.2 / b;
    double alpha = 0.0, lpq = 0.0, h = 0.0, mode = 0.0;
    int slow_ready = 0;
    for (;;) {
        double u = xo_double(st) - 0.5;
        double v = xo_double(st);
        double us = 0.5 - fabs(u);
        double kf = floor((2.0 * a / us + b) * u + c);
        if (kf < 0.0 || kf > nf) continue;
        if (us >= 0.07 && v <= vr) return (int64_t)kf;
        if (!slow_ready) {
            alpha = (2.83 + 5.1 / b) * spq;
            lpq = log(p / q);
            mode = floor((nf + 1.0) * p);
            h = lfact(mode) + lfact(nf - mode);
            slow_ready = 1;
        }
        v = log(v * alpha / (a / (us * us) + b));
        if (v <= h - lfact(kf) - lfact(nf - kf) + (kf - mode) * lpq)
            return (int64_t)kf;
    }
}

static inline int64_t binom_draw(xo256 *st, int64_t n, double p) {
    if (p <= 0.0 || n <= 0) return 0;
    if (p >= 1.0) return n;
    const int flip = p > 0.5;
    const double pp = flip ? 1.0 - p : p;
    int64_t x = ((double)n * pp < 10.0) ? binom_inversion(st, n, pp)
                                        : binom_btrs(st, n, pp);
    return flip ? n - x : x;
}

/* ------------------------------------------------------- banded walker -- */

/* counts/lo/hi/diag are (R, m) row-major; out is the (R, m) new occupancy.
 * Negative profile entries (floating-point noise) are clamped to zero, the
 * same clip _normalize_rows applies to NumPy's dense matrix. */
void mnk_sample_banded(const int64_t *counts, const double *lo,
                       const double *hi, const double *diag,
                       int64_t R, int64_t m, const uint64_t *state4,
                       uint64_t *state4_out, int64_t *out) {
    init_tables();
    xo256 st = {{state4[0], state4[1], state4[2], state4[3]}};
    double *loc = (double *)malloc(sizeof(double) * (size_t)m);
    double *hic = (double *)malloc(sizeof(double) * (size_t)m);
    double *Lo  = (double *)malloc(sizeof(double) * (size_t)m);
    double *Hi  = (double *)malloc(sizeof(double) * (size_t)m);
    int64_t *below = (int64_t *)malloc(sizeof(int64_t) * (size_t)m);
    int64_t *above = (int64_t *)malloc(sizeof(int64_t) * (size_t)m);
    memset(out, 0, sizeof(int64_t) * (size_t)R * (size_t)m);

    for (int64_t r = 0; r < R; r++) {
        const int64_t *c = counts + (size_t)r * m;
        const double *lr = lo + (size_t)r * m;
        const double *hr = hi + (size_t)r * m;
        const double *dr = diag + (size_t)r * m;
        int64_t *o = out + (size_t)r * m;

        double acc = 0.0;
        for (int64_t b = 0; b < m; b++) {
            loc[b] = lr[b] > 0.0 ? lr[b] : 0.0;
            acc += loc[b];
            Lo[b] = acc;
        }
        acc = 0.0;
        for (int64_t b = m - 1; b >= 0; b--) {
            hic[b] = hr[b] > 0.0 ? hr[b] : 0.0;
            acc += hic[b];
            Hi[b] = acc;
        }

        /* trinomial split per occupied source bin: below / stay / above */
        for (int64_t a = 0; a < m; a++) {
            below[a] = 0; above[a] = 0;
            const int64_t ca = c[a];
            if (ca <= 0) continue;
            const double wB = (a > 0) ? Lo[a - 1] : 0.0;
            const double wD = dr[a] > 0.0 ? dr[a] : 0.0;
            const double wA = (a < m - 1) ? Hi[a + 1] : 0.0;
            const double s = wB + wD + wA;
            if (s <= 0.0) { o[a] += ca; continue; }  /* degenerate row: stay */
            const int64_t nb = binom_draw(&st, ca, wB / s);
            const int64_t rest = ca - nb;
            const double dA = wD + wA;
            const int64_t na = (dA > 0.0) ? binom_draw(&st, rest, wA / dA) : 0;
            below[a] = nb; above[a] = na;
            o[a] += rest - na;
        }

        /* pooled downward walk: P(land at b | reached b) = lo[b]/Lo[b] */
        int64_t pending = 0;
        for (int64_t b = m - 2; b >= 0; b--) {
            pending += below[b + 1];
            if (pending <= 0) continue;
            int64_t land;
            if (b == 0 || Lo[b] <= 0.0) land = pending;
            else {
                const double hz = loc[b] / Lo[b];
                land = (hz >= 1.0) ? pending : binom_draw(&st, pending, hz);
            }
            o[b] += land; pending -= land;
        }

        /* pooled upward walk, mirror image */
        pending = 0;
        for (int64_t b = 1; b < m; b++) {
            pending += above[b - 1];
            if (pending <= 0) continue;
            int64_t land;
            if (b == m - 1 || Hi[b] <= 0.0) land = pending;
            else {
                const double hz = hic[b] / Hi[b];
                land = (hz >= 1.0) ? pending : binom_draw(&st, pending, hz);
            }
            o[b] += land; pending -= land;
        }
    }

    free(loc); free(hic); free(Lo); free(Hi); free(below); free(above);
    memcpy(state4_out, st.s, sizeof(st.s));
}
