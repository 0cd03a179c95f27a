/* Compiled cycle-accurate pipeline kernel.
 *
 * A C implementation of the pipeline model of the frozen oracle
 * repro/cyclesim/simulator_reference.py, held bit-identical to it by
 * tests/test_cyclesim_equivalence.py.  One cyclesim_batch() call runs
 * MANY pipeline configurations against one shared cycle plan: the
 * per-instruction tables are read-only and shared, the per-config
 * scratch (ready/complete/wake times, ROB, issue window, MSHR) is
 * allocated once and reset between configs.
 *
 * Structural notes:
 *
 *  - MSHR completions form a FIFO, not a heap: every entry completes
 *    exactly miss_penalty cycles after allocation and the clock never
 *    runs backwards, so completion order is allocation order.  The
 *    event wheel is a flat array scanned by a head cursor; entries
 *    double as MSHR records, chained into a small hash on the line
 *    number for merge lookups.
 *  - Operand wake times memoise: a producer's ready time is written
 *    exactly once (at issue), so once every producer of an instruction
 *    has issued its wake time is final (wake[] < 0 means unknown).
 *  - When a cycle retires/issues/moves nothing, the clock jumps to the
 *    next event (completion, wakeup, fetch restart, drain release) and
 *    the skipped span is charged to the stall category of the cycle.
 *
 * The opcode values are pinned to repro.isa.opclass.OpClass and
 * verified by ckernel.py before the kernel is ever called; the stall
 * category indices are pinned to repro.cyclesim.metrics.STALL_CATEGORIES.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define OP_ALU 0
#define OP_LOAD 1
#define OP_STORE 2
#define OP_BRANCH 3
#define OP_PREFETCH 4
#define OP_CAS 5
#define OP_LDSTUB 6
#define OP_MEMBAR 7
#define OP_NOP 8

/* Matches _NEVER in the reference simulator. */
#define NEVER (1LL << 60)

/* Stall-category indices: STALL_CATEGORIES order in metrics.py. */
#define CAT_COMMIT 0
#define CAT_MEMORY 1
#define CAT_IFETCH 2
#define CAT_BRANCH 3
#define CAT_DRAIN 4
#define CAT_BACKEND 5
#define CAT_FRONTEND 6
#define N_CATEGORIES 7

/* Per-config status codes. */
#define ST_OK 0
#define ST_DEADLOCK 1

/* Access kinds, matching the reference's access() closure. */
#define KIND_DMISS 0
#define KIND_IMISS 1
#define KIND_PREFETCH 2

#define HASH_BITS 15
#define HASH_SIZE (1 << HASH_BITS)

typedef struct {
    int64_t rob;
    int64_t issue_window;
    int64_t fetch_buffer;
    int64_t fetch_width;
    int64_t dispatch_width;
    int64_t issue_width;
    int64_t commit_width;
    int64_t frontend_depth;
    int64_t alu_latency;
    int64_t branch_latency;
    int64_t l1_latency;
    int64_t l2_latency;
    int64_t miss_penalty;
    int64_t redirect_penalty;
    int64_t load_in_order;
    int64_t load_wait_staddr;
    int64_t branch_in_order;
    int64_t serializing;
    int64_t perfect_l2;
    int64_t event_skip;
} CycleConfig;

typedef struct {
    int64_t cycles;
    int64_t offchip_accesses;
    int64_t dmiss_accesses;
    int64_t imiss_accesses;
    int64_t prefetch_accesses;
    int64_t nonzero_cycles;
    int64_t outstanding_integral;
    int64_t stalls[N_CATEGORIES];
    int64_t status;
    int64_t error_cycle;
    int64_t error_committed;
} CycleResult;

/* The outstanding-access tracker, bit-for-bit the Python
 * OutstandingTracker: integral/nonzero only advance over spans where
 * the count is positive, and last_time only moves forward. */
typedef struct {
    int64_t count;
    int64_t last_time;
    int64_t nonzero;
    int64_t integral;
} Tracker;

/* certify: requires now >= 0 && now <= (1 << 53) */
static void trk_advance(Tracker *t, int64_t now)
{
    int64_t elapsed = now - t->last_time;
    if (elapsed > 0) {
        if (t->count > 0) {
            t->nonzero += elapsed;
            /* reprolint: disable=kernel-overflow -- integral sums count*dt over disjoint spans (at most 2n accesses outstanding for at most miss_penalty cycles each, < 2^47 total); the interval domain loses the span correlation and sees 2^53 * 2^27 */
            t->integral += elapsed * t->count;
        }
        t->last_time = now;
    }
}

/* certify: requires now >= 0 && now <= (1 << 53) */
/* certify: requires delta >= -1 && delta <= 1 */
static void trk_add(Tracker *t, int64_t now, int64_t delta)
{
    trk_advance(t, now);
    t->count += delta;
}

/* Everything one configuration run touches, bundled so access() stays
 * a readable function instead of a 15-argument call. */
typedef struct {
    int64_t n;
    const int8_t *ops;
    const int32_t *prod1, *prod2, *prod3, *memdep;
    const int64_t *addr_line, *pc_line;
    const uint8_t *dmiss, *imiss, *mispred, *pmiss, *pfuseful;

    int64_t *ready;      /* result availability, NEVER until issue   */
    int64_t *complete;   /* commit eligibility, NEVER until issue    */
    int64_t *wake;       /* memoised operand wake time, -1 unknown   */
    uint8_t *imiss_run;  /* per-run copy: fetch consumes each miss   */

    /* MSHR entries double as completion-wheel slots (FIFO order).   */
    int64_t *ent_done;
    int64_t *ent_line;
    uint8_t *ent_useful;
    int32_t *ent_next;   /* hash chain                               */
    int32_t *hash_head;
    int64_t ce_head, ce_tail;

    int64_t *rob_buf;    /* ring buffer                              */
    int64_t rob_alloc;
    int64_t *iw_buf;     /* program-order array, compacted at issue  */
    int64_t *memops_buf;
    int64_t *branches_buf;
    int64_t *urs_buf;    /* unresolved stores: pure FIFO, no wrap    */
    int64_t *fq_idx;     /* fetch queue ring                         */
    int64_t *fq_time;
    int64_t fq_alloc;

    Tracker trk;
    CycleResult *out;
    int64_t miss_penalty;
} Ctx;

/* certify: returns 0 .. HASH_SIZE - 1 */
static uint64_t hash_line(int64_t line)
{
    uint64_t h = (uint64_t)line;
    h *= 0x9E3779B97F4A7C15ULL;
    return h >> (64 - HASH_BITS);
}

/* Start (or merge into) an off-chip access; returns completion time. */
/* certify: requires now >= 0 && now <= (1 << 52) */
/* certify: requires line >= 0 && line <= (1 << 57) */
/* certify: requires useful >= 0 && useful <= 1 */
/* certify: returns 0 .. (1 << 53) */
static int64_t do_access(Ctx *c, int64_t now, int64_t line, int useful,
                         int kind)
{
    uint64_t b = hash_line(line);
    int32_t e = c->hash_head[b];
    while (e >= 0 && c->ent_line[e] != line)
        e = c->ent_next[e];
    if (e >= 0) {  /* merge with the in-flight access to this line */
        if (useful && !c->ent_useful[e]) {
            c->ent_useful[e] = 1;
            trk_add(&c->trk, now, 1);
        }
        return c->ent_done[e];
    }
    int64_t done = now + c->miss_penalty;
    /* certify: assume c->ce_tail <= 2 * n - 1 -- at most two wheel
       entries per instruction (one pc line at fetch, gated by
       imiss_run; one data line at issue, and each instruction issues
       once), so the tail never reaches 2n */
    e = (int32_t)c->ce_tail++;
    c->ent_done[e] = done;
    c->ent_line[e] = line;
    c->ent_useful[e] = (uint8_t)useful;
    c->ent_next[e] = c->hash_head[b];
    c->hash_head[b] = e;
    if (useful) {
        trk_add(&c->trk, now, 1);
        c->out->offchip_accesses++;
        if (kind == KIND_DMISS)
            c->out->dmiss_accesses++;
        else if (kind == KIND_IMISS)
            c->out->imiss_accesses++;
        else
            c->out->prefetch_accesses++;
    }
    return done;
}

/* certify: requires i >= 0 && i <= n - 1 */
/* certify: returns 0 .. NEVER */
static int64_t wake_of(Ctx *c, int64_t i)
{
    int64_t w = c->wake[i];
    if (w >= 0)
        return w;
    w = 0;
    int32_t p = c->prod1[i];
    if (p >= 0 && c->ready[p] > w)
        w = c->ready[p];
    p = c->prod2[i];
    if (p >= 0 && c->ready[p] > w)
        w = c->ready[p];
    p = c->prod3[i];
    if (p >= 0 && c->ready[p] > w)
        w = c->ready[p];
    if (w < NEVER)
        c->wake[i] = w;  /* every producer issued: final */
    return w;
}

/* Remove *value* from an order-preserving array list (always present). */
/* certify: requires *count >= 1 && *count <= iw_alloc */
/* certify: requires value >= 0 && value <= n - 1 */
/* certify: buffer buf length iw_alloc content 0 .. n - 1 */
static void list_remove(int64_t *buf, int64_t *count, int64_t value)
{
    int64_t k = 0;
    /* certify: assume k <= *count - 1 -- value is always present among
       the first *count live entries (callers only remove instructions
       they inserted at dispatch), so the scan stops before the end */
    while (buf[k] != value)
        k++;
    (*count)--;
    /* certify: assume k <= *count -- the removed slot sits at or before
       the new count (k was below the old count, checked above) */
    memmove(buf + k, buf + k + 1, (size_t)(*count - k) * sizeof(int64_t));  /* reprolint: disable=kernel-bounds -- shifts the (*count - k) in-bounds tail left by one slot; the interval domain cannot relate the source pointer buf + k + 1 to the declared buffer base, and 0 <= k <= *count is established by the assumes above */
}

static void run_one(Ctx *c, const CycleConfig *cfg)
{
    /* certify: assume cfg->rob <= rob_alloc && cfg->issue_window <= iw_alloc && cfg->fetch_buffer <= fq_alloc -- cyclesim_batch sizes the scratch buffers to the maxima over all configs */
    const int64_t n = c->n;
    const int8_t *ops = c->ops;
    const int32_t *memdep = c->memdep;
    const uint8_t *dmiss = c->dmiss, *mispred = c->mispred;
    const uint8_t *pmiss = c->pmiss, *pfuseful = c->pfuseful;
    int64_t *ready = c->ready, *complete = c->complete;
    CycleResult *out = c->out;

    const int load_in_order = (int)cfg->load_in_order;
    const int load_wait_staddr = (int)cfg->load_wait_staddr;
    const int branch_in_order = (int)cfg->branch_in_order;
    const int serializing = (int)cfg->serializing;
    const int perfect_l2 = (int)cfg->perfect_l2;
    const int event_skip = (int)cfg->event_skip;
    const int64_t l1_latency = cfg->l1_latency;
    const int64_t l2_latency = cfg->l2_latency;
    const int64_t alu_latency = cfg->alu_latency;
    const int64_t branch_latency = cfg->branch_latency;
    const int64_t frontend_depth = cfg->frontend_depth;
    const int64_t redirect_penalty = cfg->redirect_penalty;
    const int64_t commit_width = cfg->commit_width;
    const int64_t issue_width = cfg->issue_width;
    const int64_t dispatch_width = cfg->dispatch_width;
    const int64_t fetch_width = cfg->fetch_width;
    const int64_t fetch_buffer = cfg->fetch_buffer;
    const int64_t rob_size = cfg->rob;
    const int64_t iw_size = cfg->issue_window;
    c->miss_penalty = cfg->miss_penalty;

    /* Reset per-config scratch. */
    for (int64_t i = 0; i < n; i++) {
        ready[i] = NEVER;
        complete[i] = NEVER;
    }
    memset(c->wake, 0xff, (size_t)n * sizeof(int64_t));  /* -1 */
    if (n)
        memcpy(c->imiss_run, c->imiss, (size_t)n);
    for (int64_t b = 0; b < HASH_SIZE; b++)
        c->hash_head[b] = -1;
    c->ce_head = c->ce_tail = 0;
    c->trk.count = c->trk.last_time = 0;
    c->trk.nonzero = c->trk.integral = 0;

    int64_t rob_head = 0, rob_count = 0;  /* ring over rob_buf */
    int64_t iw_count = 0;
    int64_t memops_count = 0, branches_count = 0;
    int64_t urs_head = 0, urs_tail = 0;
    int64_t fq_head = 0, fq_count = 0;

    int64_t fetch_ptr = 0;
    int64_t fetch_stall_until = 0;
    int waiting_redirect = 0;
    int64_t redirect_branch = -1;
    int64_t serializing_block_until = 0;
    int wait_reason_is_branch = 0;

    int64_t now = 0;
    int64_t committed = 0;

    while (committed < n) {
        /* certify: assume now >= 0 && now <= (1 << 52) && rob_count >= 0 && rob_count <= rob_alloc && rob_head >= 0 && rob_head <= rob_alloc - 1 && iw_count >= 0 && iw_count <= iw_alloc && fq_count >= 0 && fq_count <= fq_alloc && fq_head >= 0 && fq_head <= fq_alloc - 1 && memops_count >= 0 && memops_count <= iw_alloc && branches_count >= 0 && branches_count <= iw_alloc && urs_head >= 0 && urs_head <= urs_tail && urs_tail >= 0 && urs_tail <= n -- cycle-loop invariants: every queue insertion below is guarded by its capacity check, ring heads wrap on increment, at most one unresolved store per instruction, and simulated time only jumps to already-scheduled events (each at most miss_penalty ahead; total work is bounded by 3n events) */
        /* Retire completed off-chip accesses. */
        while (c->ce_head < c->ce_tail && c->ent_done[c->ce_head] <= now) {
            int64_t e = c->ce_head++;
            uint64_t b = hash_line(c->ent_line[e]);
            int32_t cur = c->hash_head[b];
            if (cur == (int32_t)e) {
                c->hash_head[b] = c->ent_next[e];
            } else {
                /* certify: assume cur >= 0 -- entry e is always linked
                   into its line's hash chain, so the walk stays inside
                   the chain until it finds e */
                while (c->ent_next[cur] != (int32_t)e)
                    cur = c->ent_next[cur];
                c->ent_next[cur] = c->ent_next[e];
            }
            if (c->ent_useful[e])
                trk_add(&c->trk, c->ent_done[e], -1);
        }

        int64_t activity = 0;
        int64_t committed_this_cycle = 0;

        /* ---- commit ---------------------------------------------- */
        for (int64_t k = 0; k < commit_width; k++) {
            if (rob_count == 0)
                break;
            int64_t head = c->rob_buf[rob_head];
            if (complete[head] > now)
                break;
            rob_head++;
            if (rob_head == c->rob_alloc)
                rob_head = 0;
            rob_count--;
            /* certify: assume committed <= n - 1 -- each commit retires
               a distinct one of the n instructions */
            committed++;
            /* certify: assume committed_this_cycle <= (1 << 16) - 1 --
               one increment per commit-loop iteration, and the loop is
               bounded by commit_width <= 2^16 */
            committed_this_cycle++;
            /* certify: assume activity <= (1 << 18) -- at most one
               increment per commit, issue, dispatch, or fetch slot per
               cycle, and each width is <= 2^16 */
            activity++;
        }

        /* ---- issue ----------------------------------------------- */
        if (iw_count > 0 && now >= serializing_block_until) {
            int64_t issued_this_cycle = 0;
            int any_issued = 0;
            for (int64_t pos = 0; pos < iw_count; pos++) {
                if (issued_this_cycle >= issue_width)
                    break;
                int64_t i = c->iw_buf[pos];
                int op = ops[i];
                int is_serial = (op == OP_CAS || op == OP_LDSTUB ||
                                 op == OP_MEMBAR);

                if (serializing && is_serial) {
                    /* Drain: only the ROB head may issue. */
                    if (rob_count == 0 || c->rob_buf[rob_head] != i)
                        continue;
                }
                if (wake_of(c, i) > now)
                    continue;

                if (op == OP_LOAD || op == OP_CAS || op == OP_LDSTUB) {
                    int32_t m = memdep[i];
                    if (m >= 0 && complete[m] > now)
                        continue;  /* wait for the forwarding store */
                    if (load_in_order && c->memops_buf[0] != i)
                        continue;
                    if (load_wait_staddr) {
                        while (urs_head < urs_tail) {
                            int64_t s = c->urs_buf[urs_head];
                            int64_t addr_when = 0;
                            int32_t p = c->prod1[s];
                            if (p >= 0 && ready[p] > addr_when)
                                addr_when = ready[p];
                            p = c->prod2[s];
                            if (p >= 0 && ready[p] > addr_when)
                                addr_when = ready[p];
                            if (addr_when <= now)
                                urs_head++;
                            else
                                break;
                        }
                        if (urs_head < urs_tail && c->urs_buf[urs_head] < i)
                            continue;
                    }
                    int64_t done;
                    if (dmiss[i]) {
                        if (perfect_l2)
                            done = now + l2_latency;
                        else
                            done = do_access(c, now, c->addr_line[i], 1,
                                             KIND_DMISS);
                    } else {
                        done = now + l1_latency;
                    }
                    ready[i] = done;
                    complete[i] = done;
                    if (serializing && op != OP_LOAD)
                        serializing_block_until = done;
                } else if (op == OP_STORE) {
                    if (load_in_order && c->memops_buf[0] != i)
                        continue;
                    ready[i] = now + 1;
                    complete[i] = now + 1;
                } else if (op == OP_PREFETCH) {
                    if (pmiss[i] && !perfect_l2)
                        do_access(c, now, c->addr_line[i], pfuseful[i],
                                  KIND_PREFETCH);
                    ready[i] = now + 1;
                    complete[i] = now + 1;
                } else if (op == OP_BRANCH) {
                    if (branch_in_order && c->branches_buf[0] != i)
                        continue;
                    int64_t done = now + branch_latency;
                    ready[i] = done;
                    complete[i] = done;
                    if (i == redirect_branch) {
                        fetch_stall_until = done + redirect_penalty;
                        redirect_branch = -1;
                        waiting_redirect = 0;
                        wait_reason_is_branch = 1;
                    }
                } else if (op == OP_MEMBAR) {
                    ready[i] = now + 1;
                    complete[i] = now + 1;
                    if (serializing)
                        serializing_block_until = now + 1;
                } else {  /* ALU / NOP */
                    int64_t done = now + alu_latency;
                    ready[i] = done;
                    complete[i] = done;
                }

                issued_this_cycle++;
                any_issued = 1;
                c->iw_buf[pos] = -1;  /* compacted below */
                if (op == OP_LOAD || op == OP_STORE || op == OP_PREFETCH ||
                    op == OP_CAS || op == OP_LDSTUB)
                    /* certify: assume memops_count >= 1 && memops_count <= iw_alloc -- the op being removed was inserted into memops_buf at dispatch, and the list never outgrows the issue window */
                    list_remove(c->memops_buf, &memops_count, i);
                if (op == OP_BRANCH)
                    /* certify: assume branches_count >= 1 && branches_count <= iw_alloc -- the branch being removed was inserted at dispatch, and the list never outgrows the issue window */
                    list_remove(c->branches_buf, &branches_count, i);
                if (serializing && (op == OP_CAS || op == OP_LDSTUB))
                    break;  /* drain: nothing younger issues this cycle */
            }
            if (any_issued) {
                int64_t w = 0;
                for (int64_t pos = 0; pos < iw_count; pos++) {
                    int64_t v = c->iw_buf[pos];
                    if (v >= 0)
                        /* certify: assume w <= pos -- w counts the kept
                           entries, at most one per scanned slot */
                        c->iw_buf[w++] = v;
                }
                iw_count = w;
                /* certify: assume issued_this_cycle <= (1 << 16) -- bounded by the issue_width guard, which the widened loop exit loses */
                activity += issued_this_cycle;
            }
        }

        /* ---- dispatch -------------------------------------------- */
        int64_t dispatched = 0;
        while (fq_count > 0 && dispatched < dispatch_width &&
               c->fq_time[fq_head] <= now && rob_count < rob_size &&
               iw_count < iw_size) {
            int64_t i = c->fq_idx[fq_head];
            int op = ops[i];
            if (serializing &&
                (op == OP_CAS || op == OP_LDSTUB || op == OP_MEMBAR) &&
                rob_count > 0)
                break;  /* serializing op enters an empty backend only */
            fq_head++;
            if (fq_head == c->fq_alloc)
                fq_head = 0;
            fq_count--;
            int64_t tail = rob_head + rob_count;
            if (tail >= c->rob_alloc)
                tail -= c->rob_alloc;
            c->rob_buf[tail] = i;
            rob_count++;
            c->iw_buf[iw_count++] = i;
            if (op == OP_LOAD || op == OP_STORE || op == OP_PREFETCH ||
                op == OP_CAS || op == OP_LDSTUB) {
                /* certify: assume memops_count >= 0 && memops_count <= iw_alloc - 1 -- every
                   listed memop also occupies an issue-window slot
                   (inserted together just above, removed together at
                   issue), so the list stays below the allocation */
                c->memops_buf[memops_count++] = i;
                if (op == OP_STORE && load_wait_staddr)
                    /* certify: assume urs_tail <= n - 1 -- stores enter
                       the unresolved-store FIFO once each, so at most n
                       entries are ever appended */
                    c->urs_buf[urs_tail++] = i;
            }
            if (op == OP_BRANCH)
                /* certify: assume branches_count >= 0 && branches_count <= iw_alloc - 1 --
                   every listed branch also occupies an issue-window
                   slot, so the list stays below the allocation */
                c->branches_buf[branches_count++] = i;
            dispatched++;
        }
        /* certify: assume dispatched <= (1 << 16) -- bounded by the dispatch_width guard, which the widened loop exit loses */
        activity += dispatched;

        /* ---- fetch ----------------------------------------------- */
        if (now >= fetch_stall_until && !waiting_redirect) {
            int64_t fetched = 0;
            while (fetch_ptr < n && fetched < fetch_width &&
                   fq_count < fetch_buffer) {
                int64_t i = fetch_ptr;
                if (c->imiss_run[i]) {
                    c->imiss_run[i] = 0;
                    int64_t done;
                    if (perfect_l2)
                        done = now + l2_latency;
                    else
                        done = do_access(c, now, c->pc_line[i], 1,
                                         KIND_IMISS);
                    fetch_stall_until = done;
                    wait_reason_is_branch = 0;
                    break;
                }
                int64_t slot = fq_head + fq_count;
                if (slot >= c->fq_alloc)
                    slot -= c->fq_alloc;
                c->fq_idx[slot] = i;
                c->fq_time[slot] = now + frontend_depth;
                fq_count++;
                fetch_ptr++;
                fetched++;
                if (mispred[i]) {
                    waiting_redirect = 1;
                    redirect_branch = i;
                    break;
                }
            }
            /* certify: assume fetched <= (1 << 16) -- bounded by the fetch_width guard, which the widened loop exit loses */
            activity += fetched;
        }

        /* ---- attribute this cycle to the CPI stack --------------- */
        int cat;
        if (committed_this_cycle) {
            cat = CAT_COMMIT;
        } else if (rob_count > 0) {
            int64_t head = c->rob_buf[rob_head];
            if (complete[head] < NEVER) {
                int op = ops[head];
                if (serializing && (op == OP_CAS || op == OP_LDSTUB ||
                                    op == OP_MEMBAR))
                    cat = CAT_DRAIN;
                else if (dmiss[head] || op == OP_LOAD || op == OP_CAS ||
                         op == OP_LDSTUB)
                    cat = CAT_MEMORY;
                else
                    cat = CAT_BACKEND;
            } else {
                cat = CAT_BACKEND;
            }
        } else if (waiting_redirect ||
                   (redirect_branch == -1 && fetch_stall_until > now &&
                    fetch_ptr < n && wait_reason_is_branch)) {
            cat = CAT_BRANCH;
        } else if (fetch_stall_until > now) {
            cat = CAT_IFETCH;
        } else {
            cat = CAT_FRONTEND;
        }

        /* ---- advance time ---------------------------------------- */
        trk_advance(&c->trk, now);
        if (activity || !event_skip) {
            out->stalls[cat]++;
            now++;
            continue;
        }
        /* Fully stalled: jump to the next event (clock bulk-skip). */
        int64_t next_time = NEVER;
        if (c->ce_head < c->ce_tail)
            next_time = c->ent_done[c->ce_head];
        if (rob_count > 0) {
            int64_t t = complete[c->rob_buf[rob_head]];
            if (t < next_time)
                next_time = t;
        }
        /* certify: assume iw_count >= 0 && iw_count <= iw_alloc -- the
           issue-window list never outgrows its allocation (the same
           cycle-loop invariant assumed at the loop head above) */
        for (int64_t pos = 0; pos < iw_count; pos++) {
            int64_t w = wake_of(c, c->iw_buf[pos]);
            if (now < w && w < next_time)
                next_time = w;
        }
        if (fq_count > 0 && c->fq_time[fq_head] > now &&
            c->fq_time[fq_head] < next_time)
            next_time = c->fq_time[fq_head];
        if (!waiting_redirect && now < fetch_stall_until &&
            fetch_stall_until < next_time)
            next_time = fetch_stall_until;
        if (now < serializing_block_until &&
            serializing_block_until < next_time)
            next_time = serializing_block_until;
        if (next_time <= now || next_time >= NEVER) {
            out->status = ST_DEADLOCK;
            out->error_cycle = now;
            out->error_committed = committed;
            return;
        }
        out->stalls[cat] += next_time - now;
        now = next_time;
    }

    /* certify: assume now <= (1 << 52) -- simulated time only jumps to
       already-scheduled events, each at most miss_penalty ahead of the
       clock; total time is bounded by 3n events * 2^20 < 2^47 */
    trk_advance(&c->trk, now);
    out->cycles = now;
    out->nonzero_cycles = c->trk.nonzero;
    out->outstanding_integral = c->trk.integral;
    out->status = ST_OK;
}

int cyclesim_batch(
    int64_t n,
    const int8_t *ops,
    const int32_t *prod1, const int32_t *prod2, const int32_t *prod3,
    const int32_t *memdep,
    const int64_t *addr_line, const int64_t *pc_line,
    const uint8_t *dmiss, const uint8_t *imiss, const uint8_t *mispred,
    const uint8_t *pmiss, const uint8_t *pfuseful,
    const CycleConfig *configs, int64_t n_configs,
    CycleResult *results)
{
    Ctx c;
    memset(&c, 0, sizeof(c));
    c.n = n;
    c.ops = ops;
    c.prod1 = prod1;
    c.prod2 = prod2;
    c.prod3 = prod3;
    c.memdep = memdep;
    c.addr_line = addr_line;
    c.pc_line = pc_line;
    c.dmiss = dmiss;
    c.imiss = imiss;
    c.mispred = mispred;
    c.pmiss = pmiss;
    c.pfuseful = pfuseful;

    int64_t rob_max = 1, iw_max = 1, fq_max = 1;
    for (int64_t k = 0; k < n_configs; k++) {
        if (configs[k].rob > rob_max)
            rob_max = configs[k].rob;
        if (configs[k].issue_window > iw_max)
            iw_max = configs[k].issue_window;
        if (configs[k].fetch_buffer > fq_max)
            fq_max = configs[k].fetch_buffer;
    }
    /* certify: assume rob_max == rob_alloc && iw_max == iw_alloc && fq_max == fq_alloc -- the proof's allocation symbols are defined as exactly these maxima */
    c.rob_alloc = rob_max;
    c.fq_alloc = fq_max;

    size_t ni = (size_t)(n > 0 ? n : 1);
    c.ready = malloc(ni * sizeof(int64_t));
    c.complete = malloc(ni * sizeof(int64_t));
    c.wake = malloc(ni * sizeof(int64_t));
    c.imiss_run = malloc(ni);
    c.ent_done = malloc(2 * ni * sizeof(int64_t));
    c.ent_line = malloc(2 * ni * sizeof(int64_t));
    c.ent_useful = malloc(2 * ni);
    c.ent_next = malloc(2 * ni * sizeof(int32_t));
    c.hash_head = malloc(HASH_SIZE * sizeof(int32_t));
    c.urs_buf = malloc(ni * sizeof(int64_t));
    c.rob_buf = malloc((size_t)rob_max * sizeof(int64_t));
    c.iw_buf = malloc((size_t)iw_max * sizeof(int64_t));
    c.memops_buf = malloc((size_t)iw_max * sizeof(int64_t));
    c.branches_buf = malloc((size_t)iw_max * sizeof(int64_t));
    c.fq_idx = malloc((size_t)fq_max * sizeof(int64_t));
    c.fq_time = malloc((size_t)fq_max * sizeof(int64_t));

    int ok = c.ready && c.complete && c.wake && c.imiss_run &&
             c.ent_done && c.ent_line && c.ent_useful && c.ent_next &&
             c.hash_head && c.urs_buf && c.rob_buf && c.iw_buf &&
             c.memops_buf && c.branches_buf && c.fq_idx && c.fq_time;
    if (ok) {
        for (int64_t k = 0; k < n_configs; k++) {
            memset(&results[k], 0, sizeof(CycleResult));
            c.out = &results[k];
            run_one(&c, &configs[k]);
        }
    }

    free(c.ready);
    free(c.complete);
    free(c.wake);
    free(c.imiss_run);
    free(c.ent_done);
    free(c.ent_line);
    free(c.ent_useful);
    free(c.ent_next);
    free(c.hash_head);
    free(c.urs_buf);
    free(c.rob_buf);
    free(c.iw_buf);
    free(c.memops_buf);
    free(c.branches_buf);
    free(c.fq_idx);
    free(c.fq_time);
    return ok ? 0 : 1;
}
