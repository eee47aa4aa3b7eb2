/* Compiled Dormand-Prince 5(4) step loop for the slow-fast passage.
 *
 * The executable specification is turnpike/integrate/_dp45_py.py: this file
 * performs the same floating-point operations in the same order, so the two
 * agree bit for bit. Build it with -ffp-contract=off (no fused multiply-add)
 * and never with -ffast-math. Python's min/max keep the first argument on
 * ties and NaN, which py_min/py_max reproduce; squares are products in
 * both files, because a compiler folds pow(a, 2.0) into a*a while libm pow
 * may round a*a differently.
 *
 * This file only steps. It returns when a node buffer is full and after an
 * accepted step over which an event function changes sign, in either
 * direction, with the state of the passage in a caller-owned struct, so the
 * next call resumes it. _dp45_py drives both kernels through that protocol:
 * it takes the first step, grows the buffers (its Run) up to the most nodes
 * a passage may have, so a full buffer at that size is its step cap, forms
 * dense-output rows from the stage slopes kept here, and applies every
 * event rule: the direction filter, localization, the x < 0 test and the
 * terminal rule.
 *
 * Only the builtin forms are evaluated here: f(., eps) as one polynomial,
 * given by its ascending coefficients (model.f_coeffs: the eps-weighted
 * lambda, then those of zeta), which one Horner loop evaluates as
 * check_hypotheses does, and a constant g. integrate() decodes the model
 * and the events once; the arguments are the fields of its Field and its
 * decoded events. The caller owns every buffer and the state; nothing is
 * allocated and nothing is kept between calls, so concurrent calls on
 * different states are safe.
 */
#include <math.h>
#include <stdint.h>

enum {
    DP45_T_END = 0,
    DP45_CROSSING = 1, /* an event function changed sign over the last step */
    DP45_STEP_UNDERFLOW = 2,
    DP45_BUFFER_FULL = 3 /* enlarge the node buffers and call again */
};

#define EXP_UNDERFLOW 745.0
#define SAFETY 0.9
#define MIN_FACTOR 0.2
#define MAX_FACTOR 10.0
#define ALPHA (0.7 / 5.0)
#define BETA (0.4 / 5.0)

/* Dormand-Prince 5(4) tableau */
#define A21 0.2
#define A31 (3.0 / 40.0)
#define A32 (9.0 / 40.0)
#define A41 (44.0 / 45.0)
#define A42 (-56.0 / 15.0)
#define A43 (32.0 / 9.0)
#define A51 (19372.0 / 6561.0)
#define A52 (-25360.0 / 2187.0)
#define A53 (64448.0 / 6561.0)
#define A54 (-212.0 / 729.0)
#define A61 (9017.0 / 3168.0)
#define A62 (-355.0 / 33.0)
#define A63 (46732.0 / 5247.0)
#define A64 (49.0 / 176.0)
#define A65 (-5103.0 / 18656.0)
#define B1 (35.0 / 384.0)
#define B3 (500.0 / 1113.0)
#define B4 (125.0 / 192.0)
#define B5 (-2187.0 / 6784.0)
#define B6 (11.0 / 84.0)
#define E1 (-71.0 / 57600.0)
#define E3 (71.0 / 16695.0)
#define E4 (-71.0 / 1920.0)
#define E5 (17253.0 / 339200.0)
#define E6 (-22.0 / 525.0)
#define E7 (1.0 / 40.0)

/* The vector field of one run, _dp45_py's Field. */
struct field {
    int mode; /* 0: (x, z) with y = exp(-1/z); 1: raw (x, y) */
    const double *f; /* ascending coefficients of f(x, eps) */
    int n_f;         /* >= 3: 2n weighted lambda, then zeta's */
    double eps;
    double g;
    double sign; /* +1 forward, -1 time-reversed */
};

static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

static void rhs(const struct field *fld, double x, double w,
                double *dx_out, double *dw_out)
{
    double fx = fld->f[fld->n_f - 1], y, dx, dw;
    for (int i = fld->n_f - 2; i >= 0; i--) /* Horner from the top one */
        fx = fx * x + fld->f[i];
    if (fld->mode == 0) {
        y = (w <= 0.0 || 1.0 / w > EXP_UNDERFLOW) ? 0.0 : exp(-1.0 / w);
        dx = fld->eps * fx + (y != 0.0 ? y * fld->g : 0.0);
        dw = -x * w * w;
    } else {
        dx = fld->eps * fx + w * fld->g;
        dw = -x * w;
    }
    *dx_out = fld->sign * dx;
    *dw_out = fld->sign * dw;
}

/* A passage's resumable state, owned by the caller; the passage has
 * n_steps + 1 nodes. */
struct dp45_state {
    double t, x, w, h, fx, fw, err_prev;
    int64_t n_steps, n_rejected, n_rhs;
    int last_rejected;
};

/* Step the passage in *st, on the struct field of the first six arguments
 * (f being the n_f ascending coefficients of f(x, eps)), on until t_max, a
 * step size underflow, a full node buffer (node_cap nodes, so at most
 * node_cap - 1 steps) or an accepted step over which an event function,
 * (ev_on_x[ie] ? x : w) - ev_level[ie], changes sign in either direction.
 * Node i goes to ts, xs, ws[i], and step i's size and stage slopes
 * (k1x..k7x, k1w..k7w) to hs[i] and ks[14 i .. 14 i + 13]. The caller
 * writes node 0 and fills *st first. *st is valid on every return, so the
 * next call, with the buffers enlarged after DP45_BUFFER_FULL, goes on
 * where this one stopped.
 */
int dp45_advance(int mode, const double *f, int n_f, double eps, double g,
                 double sign, double t_max, double rtol, double atol,
                 int n_ev, const int *ev_on_x, const double *ev_level,
                 int64_t node_cap, double *ts, double *xs, double *ws,
                 double *hs, double *ks,
                 struct dp45_state *st)
{
    const struct field fld = {mode, f, n_f, eps, g, sign};
    double t = st->t, x = st->x, w = st->w, h = st->h, fx = st->fx;
    double fw = st->fw, err_prev = st->err_prev;
    int64_t n_steps = st->n_steps, n_rejected = st->n_rejected;
    int64_t n_rhs = st->n_rhs;
    int last_rejected = st->last_rejected, status;

    for (;;) {
        double k1x, k1w, k2x, k2w, k3x, k3w, k4x, k4w, k5x, k5w, k6x, k6w;
        double k7x, k7w, ax, aw, x_new, w_new, err_x, err_w, ex, ew, sc_x, sc_w;
        double err_norm, factor, t_next, *k;
        int last_step = 0, crossing = 0;

        if (t >= t_max) {
            status = DP45_T_END;
            break;
        }
        if (n_steps + 1 >= node_cap) {
            status = DP45_BUFFER_FULL;
            break;
        }
        if (h >= t_max - t) {
            h = t_max - t;
            last_step = 1;
        }
        if (h < 1e-15 * py_max(fabs(t), 1.0)) {
            status = DP45_STEP_UNDERFLOW;
            break;
        }

        /* stages (k1 = FSAL carry) */
        k1x = fx;
        k1w = fw;
        ax = x + h * A21 * k1x;
        aw = w + h * A21 * k1w;
        rhs(&fld, ax, aw, &k2x, &k2w);
        ax = x + h * (A31 * k1x + A32 * k2x);
        aw = w + h * (A31 * k1w + A32 * k2w);
        rhs(&fld, ax, aw, &k3x, &k3w);
        ax = x + h * (A41 * k1x + A42 * k2x + A43 * k3x);
        aw = w + h * (A41 * k1w + A42 * k2w + A43 * k3w);
        rhs(&fld, ax, aw, &k4x, &k4w);
        ax = x + h * (A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x);
        aw = w + h * (A51 * k1w + A52 * k2w + A53 * k3w + A54 * k4w);
        rhs(&fld, ax, aw, &k5x, &k5w);
        ax = x + h * (A61 * k1x + A62 * k2x + A63 * k3x + A64 * k4x + A65 * k5x);
        aw = w + h * (A61 * k1w + A62 * k2w + A63 * k3w + A64 * k4w + A65 * k5w);
        rhs(&fld, ax, aw, &k6x, &k6w);
        x_new = x + h * (B1 * k1x + B3 * k3x + B4 * k4x + B5 * k5x + B6 * k6x);
        w_new = w + h * (B1 * k1w + B3 * k3w + B4 * k4w + B5 * k5w + B6 * k6w);
        rhs(&fld, x_new, w_new, &k7x, &k7w);
        n_rhs += 6;

        err_x = h * (E1 * k1x + E3 * k3x + E4 * k4x + E5 * k5x
                     + E6 * k6x + E7 * k7x);
        err_w = h * (E1 * k1w + E3 * k3w + E4 * k4w + E5 * k5w
                     + E6 * k6w + E7 * k7w);
        sc_x = atol + rtol * py_max(fabs(x), fabs(x_new));
        sc_w = atol + rtol * py_max(fabs(w), fabs(w_new));
        ex = err_x / sc_x;
        ew = err_w / sc_w;
        err_norm = sqrt(0.5 * (ex * ex + ew * ew));

        /* the transformed system lives on z >= 0 */
        if (mode == 0 && w_new < 0.0) {
            h *= 0.5;
            n_rejected += 1;
            last_rejected = 1;
            continue;
        }

        if (!(err_norm <= 1.0)) { /* a NaN error norm rejects the step too */
            factor = py_max(MIN_FACTOR, SAFETY * pow(err_norm, -ALPHA));
            h *= factor;
            n_rejected += 1;
            last_rejected = 1;
            continue;
        }

        /* a sign change of an event function ends the call */
        for (int ie = 0; ie < n_ev && !crossing; ie++) {
            const int on_x = ev_on_x[ie];
            const double g0 = (on_x ? x : w) - ev_level[ie];
            const double g1 = (on_x ? x_new : w_new) - ev_level[ie];
            crossing = g0 != 0.0 && (g1 == 0.0 || (g0 < 0.0) != (g1 < 0.0));
        }

        t_next = last_step ? t_max : t + h;
        ts[n_steps + 1] = t_next;
        xs[n_steps + 1] = x_new;
        ws[n_steps + 1] = w_new;
        hs[n_steps] = h;
        k = ks + 14 * n_steps;
        k[0] = k1x; k[1] = k2x; k[2] = k3x; k[3] = k4x;
        k[4] = k5x; k[5] = k6x; k[6] = k7x;
        k[7] = k1w; k[8] = k2w; k[9] = k3w; k[10] = k4w;
        k[11] = k5w; k[12] = k6w; k[13] = k7w;
        n_steps += 1;

        /* PI controller */
        if (err_norm == 0.0) {
            factor = MAX_FACTOR;
        } else {
            factor = SAFETY * pow(err_norm, -ALPHA) * pow(err_prev, BETA);
            factor = py_min(MAX_FACTOR, py_max(MIN_FACTOR, factor));
        }
        if (last_rejected)
            factor = py_min(factor, 1.0);
        t = t_next;
        x = x_new;
        w = w_new;
        fx = k7x;
        fw = k7w;
        h *= factor;
        err_prev = py_max(err_norm, 1e-10);
        last_rejected = 0;
        if (crossing) {
            status = DP45_CROSSING;
            break;
        }
    }

    st->t = t; st->x = x; st->w = w; st->h = h; st->fx = fx; st->fw = fw;
    st->err_prev = err_prev;
    st->n_steps = n_steps; st->n_rejected = n_rejected; st->n_rhs = n_rhs;
    st->last_rejected = last_rejected;
    return status;
}
