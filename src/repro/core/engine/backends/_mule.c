/*
 * The fused MULE-family kernel: MULE, the TopK size floor and LARGE-MULE.
 *
 * One depth-first walk that inlines the MuleStrategy hooks of
 * repro/core/engine/strategies.py: GenerateI, GenerateX, the O(1)
 * maximality test of Theorem 2 and the retirement of finished candidates.
 * native.py builds this file with the system C compiler, loads it through
 * ctypes and drives it one step at a time; see that module for the
 * contract the steps serve.
 *
 * Bit-identity with the python kernel rests on three rules:
 *   - every product keeps the python kernel's operand order (factor = f * p,
 *     then q * factor >= alpha), and the file is compiled with
 *     -ffp-contract=off so no multiply is fused into anything else;
 *   - every counter is charged where the python kernel charges it;
 *   - the walk order is the python kernel's: roots ascending, candidates
 *     ascending, each candidate retired once its subtree is done.
 *
 * The walk keeps all of its state in one Run, so a step can return at a
 * check point (the caller polls its deadline and cancellation token there)
 * or when the output buffers are full, and the next step resumes it.  A
 * caller may also hand over the address of a one-byte cancel flag, which
 * another thread may set while a step runs: the walk reads it before it
 * writes each clique, and ends the walk there once it is set.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* What mule_step returned for. */
#define STEP_DONE 0  /* the walk is over */
#define STEP_CHECK 1 /* a check point: poll the deadline and cancellation */
#define STEP_BATCH 2 /* the output buffers are full */
#define STEP_LIMIT 3 /* max_cliques cliques have been emitted */
#define STEP_CANCEL 4 /* the cancel flag was set before the next clique */
#define STEP_NOMEM (-1)

/* Where the next step resumes the walk. */
#define AT_LOOP 0       /* the top of the walk loop */
#define AT_ROOT_CHECK 1 /* after a root descend's check */
#define AT_NODE_CHECK 2 /* after a node's candidate-generation check */
#define AT_END 3

/* The counters, in the order of the caller's columns and totals. */
enum { RC, CE, PM, MX, PB, FRAMES, EMITTED, NCOUNTERS };

typedef struct {
    double *fac; /* the candidates' factors */
    double *xf;  /* the exclusion side's factors */
    int *cand;   /* the candidates, ascending */
    int *xw;     /* the exclusion side's members */
    int ncand, index, nx;
    double q; /* the probability of the frame's clique */
} Frame;

typedef struct {
    /* The graph: sorted CSR rows plus one adjacency bitset row per vertex. */
    int n, maxdeg;
    const int *offsets, *nbrs;
    const double *probs;
    const unsigned char *bits;
    int64_t rowbytes;
    const unsigned char *roots; /* the root shard's bitset; NULL for all */
    double alpha;
    int large, min_size;
    int64_t check_every, max_cliques; /* max_cliques 0 for no limit */
    const volatile unsigned char *cancel; /* the caller's flag; NULL for none */
    /* The caller's output buffers, reused by every step. */
    int batch, ind_cap;
    int *out_ind, *out_sizes;
    double *out_probs;
    int64_t *out_counters; /* FRAMES + 1 columns of batch rows */
    int64_t *totals;       /* NCOUNTERS */
    int *info;             /* cliques and labels written by the last step */
    /* The walk. */
    int resume, root, depth, u, nchild;
    int64_t since; /* steps since the last check point */
    double q;
    int64_t count[NCOUNTERS];
    int *clique;
    Frame *frame;
    int nframes, ready; /* frames in all; frames with buffers */
} Run;

#define BIT(row, w) (((row)[(w) >> 3] >> ((w) & 7)) & 1)

/* The first position in [lo, hi) whose neighbour is not below w. */
static int lower_bound(const int *nbrs, int lo, int hi, int w)
{
    while (lo < hi) {
        int mid = lo + ((hi - lo) >> 1);
        if (nbrs[mid] < w)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Give frames up to and including d their buffers; nonzero on failure. */
static int ensure(Run *r, int d)
{
    size_t cap = r->maxdeg > 0 ? (size_t)r->maxdeg : 1;
    if (d >= r->nframes)
        return -1;
    while (r->ready <= d) {
        Frame *f = &r->frame[r->ready];
        char *block = malloc(cap * 2 * (sizeof(double) + sizeof(int)));
        if (block == NULL)
            return -1;
        f->fac = (double *)block;
        f->xf = f->fac + cap;
        f->cand = (int *)(f->xf + cap);
        f->xw = f->cand + cap;
        r->ready++;
    }
    return 0;
}

/* The depth-1 frame of root: its higher neighbours with p >= alpha. */
static void root_candidates(const Run *r, int root, Frame *f)
{
    int hi = r->offsets[root + 1];
    int j = lower_bound(r->nbrs, r->offsets[root], hi, root + 1);
    int nc = 0;
    for (; j < hi; j++) {
        double p = r->probs[j];
        if (p >= r->alpha) {
            f->cand[nc] = r->nbrs[j];
            f->fac[nc] = p;
            nc++;
        }
    }
    f->ncand = nc;
}

/* Its exclusion side: the lower neighbours with p >= alpha, all retired. */
static void root_exclusions(const Run *r, int root, Frame *f)
{
    int lo = r->offsets[root];
    int end = lower_bound(r->nbrs, lo, r->offsets[root + 1], root);
    int nx = 0;
    for (; lo < end; lo++) {
        double p = r->probs[lo];
        if (p >= r->alpha) {
            f->xw[nx] = r->nbrs[lo];
            f->xf[nx] = p;
            nx++;
        }
    }
    f->nx = nx;
}

/* GenerateI: the candidates after f's current one, u, that stay feasible. */
static int generate_i(const Run *r, const Frame *f, int u, double q, Frame *c)
{
    const unsigned char *row = r->bits + (int64_t)u * r->rowbytes;
    int lo = r->offsets[u], hi = r->offsets[u + 1];
    int nc = 0;
    for (int j = f->index + 1; j < f->ncand; j++) {
        int w = f->cand[j];
        if (!BIT(row, w))
            continue;
        lo = lower_bound(r->nbrs, lo, hi, w);
        double factor = f->fac[j] * r->probs[lo];
        if (q * factor >= r->alpha) {
            c->cand[nc] = w;
            c->fac[nc] = factor;
            nc++;
        }
        lo++;
    }
    return nc;
}

/* GenerateX: the members of f's exclusion side that stay feasible with u. */
static int generate_x(const Run *r, const Frame *f, int u, double q, Frame *c)
{
    const unsigned char *row = r->bits + (int64_t)u * r->rowbytes;
    int lo = r->offsets[u], hi = r->offsets[u + 1];
    int nx = 0;
    for (int k = 0; k < f->nx; k++) {
        int w = f->xw[k];
        if (!BIT(row, w))
            continue;
        double factor = f->xf[k] * r->probs[lower_bound(r->nbrs, lo, hi, w)];
        if (q * factor >= r->alpha) {
            c->xw[nx] = w;
            c->xf[nx] = factor;
            nx++;
        }
    }
    return nx;
}

/* Whether one member of f's exclusion side stays feasible with u: a
 * childless node is alpha-maximal exactly when none does. */
static int exclusion_alive(const Run *r, const Frame *f, int u, double q)
{
    const unsigned char *row = r->bits + (int64_t)u * r->rowbytes;
    int lo = r->offsets[u], hi = r->offsets[u + 1];
    for (int k = 0; k < f->nx; k++) {
        int w = f->xw[k];
        if (BIT(row, w)
            && q * (f->xf[k] * r->probs[lower_bound(r->nbrs, lo, hi, w)]) >= r->alpha)
            return 1;
    }
    return 0;
}

/* Move f's current candidate u, with its own factor, to the exclusion side. */
static void retire(Frame *f, int u)
{
    f->xw[f->nx] = u;
    f->xf[f->nx] = f->fac[f->index];
    f->nx++;
    f->index++;
}

/* Whether the caller's cancel flag is set: read before each clique, so a
 * cancelled walk writes no clique after the cancel. */
static int cancelled(const Run *r)
{
    return r->cancel != NULL && *r->cancel != 0;
}

/* Write one clique (the first size - 1 members of the path, then last)
 * and the counters it carries into row nout of the output buffers. */
static void emit(Run *r, int nout, int nlab, int size, int last, double q)
{
    memcpy(r->out_ind + nlab, r->clique, (size_t)(size - 1) * sizeof(int));
    r->out_ind[nlab + size - 1] = last;
    r->out_sizes[nout] = size;
    r->out_probs[nout] = q;
    for (int k = RC; k <= FRAMES; k++)
        r->out_counters[(int64_t)k * r->batch + nout] = r->count[k];
}

void mule_fill_bits(int n, const int *offsets, const int *nbrs, int64_t rowbytes,
                    unsigned char *bits)
{
    for (int u = 0; u < n; u++) {
        unsigned char *row = bits + (int64_t)u * rowbytes;
        for (int j = offsets[u]; j < offsets[u + 1]; j++)
            row[nbrs[j] >> 3] |= (unsigned char)(1u << (nbrs[j] & 7));
    }
}

void mule_free(Run *r)
{
    if (r == NULL)
        return;
    for (int d = 0; d < r->ready; d++)
        free(r->frame[d].fac);
    free(r->frame);
    free(r->clique);
    free(r);
}

Run *mule_new(int n, int maxdeg, const int *offsets, const int *nbrs, const double *probs,
              const unsigned char *bits, int64_t rowbytes, const unsigned char *roots,
              double alpha, int large, int min_size, int64_t check_every, int64_t max_cliques,
              const int64_t *base, const volatile unsigned char *cancel, int batch, int ind_cap,
              int *out_ind, int *out_sizes, double *out_probs, int64_t *out_counters,
              int64_t *totals, int *info)
{
    Run *r = calloc(1, sizeof(Run));
    if (r == NULL)
        return NULL;
    r->n = n;
    r->maxdeg = maxdeg;
    r->offsets = offsets;
    r->nbrs = nbrs;
    r->probs = probs;
    r->bits = bits;
    r->rowbytes = rowbytes;
    r->roots = roots;
    r->alpha = alpha;
    r->large = large;
    r->min_size = min_size;
    r->check_every = check_every;
    r->max_cliques = max_cliques;
    r->cancel = cancel;
    r->batch = batch;
    r->ind_cap = ind_cap;
    r->out_ind = out_ind;
    r->out_sizes = out_sizes;
    r->out_probs = out_probs;
    r->out_counters = out_counters;
    r->totals = totals;
    r->info = info;
    r->resume = AT_LOOP;
    r->depth = -1;
    for (int k = RC; k <= PB; k++)
        r->count[k] = base[k];
    /* The root expand: one call, one frame. */
    r->count[RC]++;
    r->count[FRAMES] = 1;
    /* A clique has at most maxdeg + 1 members, so frames 0..maxdeg. */
    r->nframes = maxdeg + 1;
    r->clique = malloc((size_t)(maxdeg + 1) * sizeof(int));
    r->frame = calloc((size_t)r->nframes, sizeof(Frame));
    if (r->clique == NULL || r->frame == NULL || ensure(r, 0)) {
        mule_free(r);
        return NULL;
    }
    return r;
}

/* Run the walk until a check point, a full batch or its end. */
int mule_step(Run *r)
{
    const int min_size = r->min_size, large = r->large;
    const int64_t every = r->check_every;
    int64_t *count = r->count, since = r->since;
    int d = r->depth, root = r->root;
    int nout = 0, nlab = 0, status, u = 0, nc = 0;
    double q = 0.0;
    Frame *f = NULL, *c = NULL;
    int at = r->resume;

    r->resume = AT_LOOP;
    switch (at) {
    case AT_ROOT_CHECK:
        f = r->frame;
        goto root_checked;
    case AT_NODE_CHECK:
        f = &r->frame[d];
        c = f + 1;
        u = r->u;
        q = r->q;
        nc = r->nchild;
        goto node_checked;
    case AT_END:
        r->resume = AT_END;
        status = STEP_DONE;
        goto out;
    default:
        break;
    }

    for (;;) {
        if (d < 0) {
            if (root >= r->n) {
                r->resume = AT_END;
                status = STEP_DONE;
                goto out;
            }
            if (r->roots != NULL && !BIT(r->roots, root)) {
                /* A root outside the shard: no counter, but a check step;
                 * the root frames below count it as retired. */
                root++;
                if (++since >= every) {
                    since = 0;
                    status = STEP_CHECK;
                    goto out;
                }
                continue;
            }
            /* The root descend.  Exactly root vertices are retired by now,
             * so the Lemma 10 charge is 1 + n + root; LARGE-MULE charges
             * the exclusion side only when the branch survives its bound. */
            f = r->frame;
            root_candidates(r, root, f);
            count[CE]++;
            if (large) {
                count[PM] += 1 + r->n;
                if (1 + f->ncand < min_size) {
                    count[PB]++;
                    root++;
                    if (++since >= every) {
                        since = 0;
                        status = STEP_CHECK;
                        goto out;
                    }
                    continue;
                }
                count[PM] += root;
            } else {
                count[PM] += 1 + r->n + root;
            }
            root_exclusions(r, root, f);
            if (++since >= every) {
                since = 0;
                r->resume = AT_ROOT_CHECK;
                status = STEP_CHECK;
                goto out;
            }
        root_checked:
            count[RC]++;
            count[FRAMES]++;
            if (f->ncand == 0) {
                /* A childless root is alpha-maximal iff nothing is retired
                 * next to it; a singleton has probability 1. */
                int emitted = 0;
                if (f->nx == 0) {
                    count[MX]++;
                    if (min_size <= 1) {
                        if (cancelled(r)) {
                            r->resume = AT_END;
                            status = STEP_CANCEL;
                            goto out;
                        }
                        emit(r, nout, nlab, 1, root, 1.0);
                        nout++;
                        nlab++;
                        count[EMITTED]++;
                        emitted = 1;
                    }
                }
                root++;
                if (emitted) {
                    if (r->max_cliques && count[EMITTED] >= r->max_cliques) {
                        r->resume = AT_END;
                        status = STEP_LIMIT;
                        goto out;
                    }
                    if (nout == r->batch || nlab + r->maxdeg + 1 > r->ind_cap) {
                        status = STEP_BATCH;
                        goto out;
                    }
                }
                continue;
            }
            r->clique[0] = root;
            f->q = 1.0;
            f->index = 0;
            d = 0;
        }

        f = &r->frame[d];
        if (f->index < f->ncand) {
            u = f->cand[f->index];
            count[CE]++;
            q = f->q * f->fac[f->index];
            count[PM] += 1 + f->ncand + (large ? 0 : f->nx);
            if (ensure(r, d + 1)) {
                status = STEP_NOMEM;
                goto out;
            }
            c = f + 1;
            nc = generate_i(r, f, u, q, c);
            if (large) {
                if (d + 2 + nc < min_size) {
                    /* Algorithm 6, line 8: cut before GenerateX. */
                    count[PB]++;
                    retire(f, u);
                    if (++since >= every) {
                        since = 0;
                        status = STEP_CHECK;
                        goto out;
                    }
                    continue;
                }
                count[PM] += f->nx;
            }
            if (++since >= every) {
                since = 0;
                r->u = u;
                r->q = q;
                r->nchild = nc;
                r->resume = AT_NODE_CHECK;
                status = STEP_CHECK;
                goto out;
            }
        node_checked:
            if (nc > 0) {
                c->nx = generate_x(r, f, u, q, c);
                count[RC]++;
                count[FRAMES]++;
                r->clique[d + 1] = u;
                c->q = q;
                c->ncand = nc;
                c->index = 0;
                d++;
                continue;
            }
            count[RC]++;
            count[FRAMES]++;
            if (!exclusion_alive(r, f, u, q)) {
                count[MX]++;
                if (d + 2 >= min_size) {
                    if (cancelled(r)) {
                        r->resume = AT_END;
                        status = STEP_CANCEL;
                        goto out;
                    }
                    emit(r, nout, nlab, d + 2, u, q);
                    nout++;
                    nlab += d + 2;
                    count[EMITTED]++;
                    if (r->max_cliques && count[EMITTED] >= r->max_cliques) {
                        r->resume = AT_END;
                        status = STEP_LIMIT;
                        goto out;
                    }
                    if (nout == r->batch || nlab + r->maxdeg + 1 > r->ind_cap) {
                        retire(f, u);
                        status = STEP_BATCH;
                        goto out;
                    }
                }
            }
            retire(f, u);
            continue;
        }
        /* The frame is exhausted: pop it and retire its vertex above. */
        if (d == 0) {
            d = -1;
            root++;
            continue;
        }
        d--;
        f = &r->frame[d];
        retire(f, f->cand[f->index]);
    }

out:
    r->depth = d;
    r->root = root;
    r->since = since;
    r->info[0] = nout;
    r->info[1] = nlab;
    memcpy(r->totals, count, sizeof(r->count));
    return status;
}
