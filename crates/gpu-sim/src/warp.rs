//! Warp execution state: program counter, i-buffer, scoreboard, and
//! outstanding-load tracking.

use crate::access::AddressStream;
use crate::kernel::{KernelDesc, KernelId};
use crate::program::{Inst, OpClass, Reg, NUM_VIRTUAL_REGS};

/// Scoreboard marker for a register awaiting a global load.
pub const PENDING_LOAD: u64 = u64::MAX;

/// Why a warp cannot issue its head instruction this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueBlock {
    /// An operand (or the destination) awaits an outstanding global load.
    MemPending,
    /// An operand awaits a short ALU/SFU/shared-memory result.
    RawPending,
}

/// One outstanding global load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadTracker {
    /// Warp-local load id (monotonic).
    pub id: u32,
    /// Destination register.
    pub dst: Reg,
    /// L1-miss transactions still in flight.
    pub remaining: u32,
    /// Whether the LSU has issued every transaction of the load.
    pub all_issued: bool,
}

/// A resident warp.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Owning kernel.
    pub kernel: KernelId,
    /// CTA slot within the SM this warp belongs to.
    pub cta_slot: usize,
    /// Slot-recycling generation (checked by late memory fills).
    pub gen: u32,
    /// Launch order stamp used by the greedy-then-oldest scheduler.
    pub launch_seq: u64,
    /// Dynamic warp instructions issued so far.
    pub insts_issued: u64,
    /// Whether the warp is parked at a CTA-wide barrier.
    pub at_barrier: bool,
    total_insts: u64,
    pc: usize,
    body_len: usize,
    iters_left: u32,
    /// The i-buffer holds consecutive body instructions, so it is the
    /// count `ib_len` of them starting at `head_pc` (wrapping), with the
    /// decoded head cached: `Some(body[head_pc])` while `ib_len > 0`.
    head: Option<Inst>,
    head_pc: usize,
    ib_len: u32,
    ib_cap: u32,
    fetch_ready: u64,
    fetch_count: u64,
    reg_ready: [u64; NUM_VIRTUAL_REGS],
    loads: Vec<LoadTracker>,
    next_load_id: u32,
    /// Global-memory address stream for this warp.
    pub stream: AddressStream,
}

impl Warp {
    /// Creates a warp for `desc` (kernel slot `kernel`), CTA `cta_index`,
    /// warp `warp_in_cta` within it.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        desc: &KernelDesc,
        kernel: KernelId,
        cta_slot: usize,
        cta_index: u64,
        warp_in_cta: u32,
        gen: u32,
        launch_seq: u64,
        ibuffer_cap: u32,
    ) -> Self {
        Self {
            kernel,
            cta_slot,
            gen,
            launch_seq,
            insts_issued: 0,
            at_barrier: false,
            total_insts: desc.insts_per_warp(),
            pc: 0,
            body_len: desc.program.len(),
            iters_left: desc.iterations,
            head: None,
            head_pc: 0,
            ib_len: 0,
            ib_cap: ibuffer_cap,
            fetch_ready: 0,
            fetch_count: 0,
            reg_ready: [0; NUM_VIRTUAL_REGS],
            loads: Vec::with_capacity(4),
            next_load_id: 0,
            stream: AddressStream::new(kernel.0, cta_index, warp_in_cta, desc.seed),
        }
    }

    /// Whether the warp has issued its full instruction budget.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.insts_issued >= self.total_insts
    }

    /// Whether every body instruction has been fetched (fetch front end is
    /// done, but issue may lag).
    #[must_use]
    pub fn fetch_done(&self) -> bool {
        self.iters_left == 0
    }

    /// Attempts one fetch into the i-buffer, returning whether an
    /// instruction was fetched (consuming shared fetch-port bandwidth).
    /// `now` is the current cycle; the i-cache miss decision is a
    /// deterministic hash so runs replay exactly.
    pub fn fetch(
        &mut self,
        now: u64,
        desc: &KernelDesc,
        fetch_latency: u32,
        icache_miss_penalty: u32,
    ) -> bool {
        if self.fetch_done() || self.ib_len >= self.ib_cap || self.fetch_ready > now {
            return false;
        }
        if self.head.is_none() {
            self.head = Some(desc.program.inst(self.pc));
            self.head_pc = self.pc;
        }
        self.ib_len += 1;
        self.pc += 1;
        if self.pc == self.body_len {
            self.pc = 0;
            self.iters_left -= 1;
        }
        self.fetch_count += 1;
        let miss = if desc.icache_miss_rate > 0.0 {
            // Deterministic hash in [0, 1).
            let h = self
                .fetch_count
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.launch_seq.rotate_left(17));
            (h >> 11) as f64 / (1u64 << 53) as f64 >= 1.0 - desc.icache_miss_rate
        } else {
            false
        };
        self.fetch_ready = now
            + u64::from(fetch_latency)
            + if miss {
                u64::from(icache_miss_penalty)
            } else {
                0
            };
        true
    }

    /// The decoded instruction at the head of the i-buffer.
    #[must_use]
    pub fn head(&self) -> Option<Inst> {
        self.head
    }

    /// Whether the i-buffer is empty (front-end starved).
    #[must_use]
    pub fn ibuffer_empty(&self) -> bool {
        self.head.is_none()
    }

    fn reg_block(&self, reg: Reg, now: u64) -> Option<IssueBlock> {
        let ready = self.reg_ready[reg as usize];
        if ready == PENDING_LOAD {
            Some(IssueBlock::MemPending)
        } else if ready > now {
            Some(IssueBlock::RawPending)
        } else {
            None
        }
    }

    /// Scoreboard check for the head instruction. `None` means operands are
    /// ready (structural hazards are the SM's concern).
    #[must_use]
    pub fn issue_block(&self, now: u64) -> Option<IssueBlock> {
        let inst = self.head()?;
        let mut worst: Option<IssueBlock> = None;
        let mut consider = |b: Option<IssueBlock>| {
            worst = match (worst, b) {
                (_, Some(IssueBlock::MemPending)) | (Some(IssueBlock::MemPending), _) => {
                    Some(IssueBlock::MemPending)
                }
                (w, None) => w,
                (None, b) => b,
                (w, _) => w,
            };
        };
        for src in inst.srcs.into_iter().flatten() {
            consider(self.reg_block(src, now));
        }
        if let Some(dst) = inst.dst {
            // Write-after-write on an in-flight load result.
            consider(self.reg_block(dst, now));
        }
        worst
    }

    /// Consumes the head instruction at issue and decodes the next one from
    /// `desc`'s body. For ALU/SFU/shared-memory ops the destination becomes
    /// ready at `now + latency`; for global loads the caller must follow up
    /// with [`Self::begin_load`].
    pub fn issue(&mut self, now: u64, result_latency: u64, desc: &KernelDesc) -> Inst {
        // Invariant: the scheduler only issues warps whose i-buffer it just
        // inspected via head(). xtask-allow: no-unwrap
        let inst = self.head.expect("issue on empty i-buffer");
        self.ib_len -= 1;
        self.head = if self.ib_len == 0 {
            None
        } else {
            self.head_pc += 1;
            if self.head_pc == self.body_len {
                self.head_pc = 0;
            }
            Some(desc.program.inst(self.head_pc))
        };
        self.insts_issued += 1;
        if inst.op != OpClass::GlobalLoad {
            if let Some(dst) = inst.dst {
                self.reg_ready[dst as usize] = now + result_latency;
            }
        }
        inst
    }

    /// Registers a new outstanding global load for `dst`, returning its
    /// warp-local load id.
    pub fn begin_load(&mut self, dst: Reg) -> u32 {
        let id = self.next_load_id;
        self.next_load_id += 1;
        self.reg_ready[dst as usize] = PENDING_LOAD;
        self.loads.push(LoadTracker {
            id,
            dst,
            remaining: 0,
            all_issued: false,
        });
        id
    }

    /// Notes one more in-flight L1-miss transaction for load `id`.
    pub fn add_load_transaction(&mut self, id: u32) {
        let t = self
            .loads
            .iter_mut()
            .find(|t| t.id == id)
            // Invariant: ids come from begin_load on this same warp and stay
            // live until the load completes. xtask-allow: no-unwrap
            .expect("unknown load id");
        t.remaining += 1;
    }

    /// Marks every transaction of load `id` as issued; if none missed the
    /// L1 the destination becomes ready at `ready_at`. Returns `true` if the
    /// load completed immediately.
    pub fn finish_load_issue(&mut self, id: u32, ready_at: u64) -> bool {
        let idx = self
            .loads
            .iter()
            .position(|t| t.id == id)
            // Invariant: same id lifecycle as add_load_transaction above.
            // xtask-allow: no-unwrap
            .expect("unknown load id");
        self.loads[idx].all_issued = true;
        if self.loads[idx].remaining == 0 {
            let dst = self.loads[idx].dst;
            self.reg_ready[dst as usize] = ready_at;
            self.loads.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// Completes one in-flight transaction of load `id` (a fill returned).
    /// Returns `true` if this completed the whole load.
    pub fn complete_load_transaction(&mut self, id: u32, now: u64) -> bool {
        let Some(idx) = self.loads.iter().position(|t| t.id == id) else {
            return false; // stale fill for an already-halted warp
        };
        let t = &mut self.loads[idx];
        debug_assert!(t.remaining > 0);
        t.remaining -= 1;
        if t.remaining == 0 && t.all_issued {
            let dst = t.dst;
            self.reg_ready[dst as usize] = now;
            self.loads.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// The raw fetch readiness as a single sentinel-encoded cycle: the
    /// cycle the fetch port opens for this warp, or `u64::MAX` when fetching
    /// cannot resume on its own (body fully fetched, or i-buffer full). This
    /// is the value cached per-slot in [`WarpTable::fetch_at`].
    #[must_use]
    pub fn fetch_ready_at(&self) -> u64 {
        if self.fetch_done() || self.ib_len >= self.ib_cap {
            u64::MAX
        } else {
            self.fetch_ready
        }
    }

    /// The scoreboard state of the head instruction as a single
    /// sentinel-encoded cycle plus its op class, or `None` when the
    /// i-buffer is empty. The cycle is the max readiness over every source
    /// operand and the destination; because [`PENDING_LOAD`] is `u64::MAX`
    /// the encoding is total: `== u64::MAX` means an outstanding global
    /// load, `> now` a short RAW hazard, `<= now` operands ready.
    #[must_use]
    pub fn head_state(&self) -> Option<(u64, OpClass)> {
        let inst = self.head()?;
        let mut ready = 0u64;
        for src in inst.srcs.into_iter().flatten() {
            ready = ready.max(self.reg_ready[src as usize]);
        }
        if let Some(dst) = inst.dst {
            // Write-after-write on an in-flight load result.
            ready = ready.max(self.reg_ready[dst as usize]);
        }
        Some((ready, inst.op))
    }

    /// Outstanding-load count (for occupancy introspection/tests).
    #[must_use]
    pub fn outstanding_loads(&self) -> usize {
        self.loads.len()
    }

    /// Total dynamic instructions this warp will issue.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }
}

/// Slots waiting for a per-slot cycle later than the owning table's clock
/// `now`, filed on a timing wheel. A slot waking at cycle `t` with
/// `t - now <= len` sits in bucket `t & (len - 1)`: the `len` cycles after
/// `now` map to distinct buckets, so a bucket holds the slots of exactly
/// one cycle. A slot waiting longer sits in the overflow set `far` until
/// the clock comes within `len` cycles of it. Filing and unfiling are O(1),
/// [`Self::advance`] drains only the buckets the clock passes, and
/// [`Self::wake`] finds the earliest bucket with a rotate and a
/// trailing-zero count.
#[derive(Debug, Clone)]
struct WaitSet {
    /// Every waiting slot.
    mask: u64,
    /// Slots by wake cycle modulo the wheel length (a power of two, at
    /// most 64, so one `u64` tracks which buckets are occupied).
    buckets: Vec<u64>,
    /// Bit `i` set while `buckets[i]` is non-empty.
    occupied: u64,
    /// Slots waking more than `len` cycles after `now`.
    far: u64,
    /// Minimum wake cycle over `far` (`u64::MAX` when empty).
    far_min: u64,
}

impl WaitSet {
    /// An empty set on a wheel long enough that a wait of up to
    /// `max_wait` cycles never takes the overflow set (capped at 64
    /// buckets).
    fn new(max_wait: u32) -> Self {
        let len = max_wait.clamp(1, 64).next_power_of_two() as usize;
        Self {
            mask: 0,
            buckets: vec![0; len],
            occupied: 0,
            far: 0,
            far_min: u64::MAX,
        }
    }

    fn len(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Files slot `slot`, not yet in the set, as waking at `t > now`.
    fn file(&mut self, slot: usize, t: u64, now: u64) {
        let bit = 1u64 << slot;
        self.mask |= bit;
        if t - now <= self.len() {
            let i = (t & (self.len() - 1)) as usize;
            self.buckets[i] |= bit;
            self.occupied |= 1u64 << i;
        } else {
            self.far |= bit;
            self.far_min = self.far_min.min(t);
        }
    }

    /// Unfiles slot `slot`, filed under cycle `t`; `at` holds the other
    /// slots' cycles.
    fn unfile(&mut self, slot: usize, t: u64, at: &[u64]) {
        let bit = 1u64 << slot;
        self.mask &= !bit;
        if self.far & bit != 0 {
            self.far &= !bit;
            if t == self.far_min {
                self.far_min = min_over(self.far, at);
            }
        } else {
            let i = (t & (self.len() - 1)) as usize;
            self.buckets[i] &= !bit;
            if self.buckets[i] == 0 {
                self.occupied &= !(1u64 << i);
            }
        }
    }

    /// Moves slot `slot` in or out of the set at clock `now`. `until` is
    /// the cycle it now waits for (`None`: it no longer waits), `old` the
    /// cycle its entry in `at` held before the caller overwrote it.
    fn update(&mut self, slot: usize, old: u64, until: Option<u64>, now: u64, at: &[u64]) {
        if self.mask & (1u64 << slot) != 0 {
            if until == Some(old) {
                return;
            }
            self.unfile(slot, old, at);
        }
        if let Some(t) = until {
            self.file(slot, t, now);
        }
    }

    /// Moves the clock from `from` to `to >= from`: drops every slot whose
    /// cycle is `<= to` and returns them. A jump of `len` cycles or more
    /// drains every bucket at once.
    #[inline]
    fn advance(&mut self, from: u64, to: u64, at: &[u64]) -> u64 {
        if self.mask == 0 {
            return 0;
        }
        let len = self.len();
        let due = if to - from == 1 {
            // One tick: the bucket of cycle `to` alone.
            self.occupied & (1u64 << (to & (len - 1)))
        } else if to - from >= len {
            self.occupied
        } else {
            // The buckets of cycles `from + 1 ..= to`.
            let span = (1u64 << (to - from)) - 1;
            self.occupied & rotl(span, (from + 1) & (len - 1), len)
        };
        self.occupied &= !due;
        let mut woke = 0u64;
        let mut d = due;
        while d != 0 {
            woke |= std::mem::take(&mut self.buckets[d.trailing_zeros() as usize]);
            d &= d - 1;
        }
        if self.far_min <= to.saturating_add(len) {
            woke |= self.refile_far(to, at);
        }
        self.mask &= !woke;
        woke
    }

    /// Moves the overflow slots within `len` cycles of `now` onto the
    /// wheel and returns those already due (the rarely taken path of
    /// waits longer than the wheel).
    #[cold]
    fn refile_far(&mut self, now: u64, at: &[u64]) -> u64 {
        let mut m = std::mem::take(&mut self.far);
        self.far_min = u64::MAX;
        let mut due = 0u64;
        while m != 0 {
            let slot = m.trailing_zeros() as usize;
            m &= m - 1;
            if at[slot] <= now {
                due |= 1u64 << slot;
            } else {
                self.file(slot, at[slot], now);
            }
        }
        due
    }

    /// The earliest cycle a slot wakes at (`u64::MAX` when none waits).
    /// Every bucketed cycle precedes every overflow cycle.
    fn wake(&self, now: u64) -> u64 {
        if self.occupied == 0 {
            return self.far_min;
        }
        let len = self.len();
        let first = rotr(self.occupied, (now + 1) & (len - 1), len).trailing_zeros();
        now + 1 + u64::from(first)
    }

    /// Empties the set, then files each slot of `slots` whose cycle in
    /// `at` is finite and later than `now`.
    fn rebuild(&mut self, slots: u64, now: u64, at: &[u64]) {
        let mut o = self.occupied;
        while o != 0 {
            self.buckets[o.trailing_zeros() as usize] = 0;
            o &= o - 1;
        }
        self.mask = 0;
        self.occupied = 0;
        self.far = 0;
        self.far_min = u64::MAX;
        let mut m = slots;
        while m != 0 {
            let slot = m.trailing_zeros() as usize;
            m &= m - 1;
            if at[slot] != u64::MAX && at[slot] > now {
                self.file(slot, at[slot], now);
            }
        }
    }

    /// Oracle check: asserts the set holds exactly `expect` (slot mask,
    /// minimum cycle) at clock `now`, and that every slot is filed where
    /// its cycle in `at` puts it.
    fn assert_filed(&self, expect: (u64, u64), now: u64, at: &[u64], what: &str) {
        assert_eq!(
            (self.mask, self.wake(now)),
            expect,
            "{what} mask / wake at cycle {now}"
        );
        let len = self.len();
        let mut near = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            assert_eq!(
                self.occupied & (1u64 << i) != 0,
                b != 0,
                "{what}: bucket {i} occupancy bit at cycle {now}"
            );
            near |= b;
        }
        assert_eq!(near & self.far, 0, "{what}: slot both bucketed and far");
        assert_eq!(near | self.far, self.mask, "{what}: filed slots vs mask");
        assert_eq!(self.far_min, min_over(self.far, at), "{what}: far minimum");
        let mut m = self.mask;
        while m != 0 {
            let slot = m.trailing_zeros() as usize;
            m &= m - 1;
            let t = at[slot];
            assert!(
                t > now,
                "{what}: slot {slot} due at {t} still waits at {now}"
            );
            let bit = 1u64 << slot;
            if t - now <= len {
                let i = (t & (len - 1)) as usize;
                assert_ne!(
                    self.buckets[i] & bit,
                    0,
                    "{what}: slot {slot} not in bucket {i}"
                );
            } else {
                assert_ne!(
                    self.far & bit,
                    0,
                    "{what}: slot {slot} not in the overflow set"
                );
            }
        }
    }
}

/// Minimum of `at[slot]` over the slots of `mask` (`u64::MAX` if empty).
fn min_over(mask: u64, at: &[u64]) -> u64 {
    let mut best = u64::MAX;
    let mut m = mask;
    while m != 0 {
        best = best.min(at[m.trailing_zeros() as usize]);
        m &= m - 1;
    }
    best
}

/// `x` (bits below `len` only) rotated left by `s < len` within `len` bits.
fn rotl(x: u64, s: u64, len: u64) -> u64 {
    if len == 64 {
        x.rotate_left(s as u32)
    } else {
        ((x << s) | (x >> (len - s))) & ((1u64 << len) - 1)
    }
}

/// `x` (bits below `len` only) rotated right by `s < len` within `len` bits.
fn rotr(x: u64, s: u64, len: u64) -> u64 {
    if len == 64 {
        x.rotate_right(s as u32)
    } else {
        ((x >> s) | (x << (len - s))) & ((1u64 << len) - 1)
    }
}

/// Struct-of-arrays mirror of the per-warp state the per-cycle stages
/// actually read: residency/finished/barrier/i-buffer/mem-pending bitmasks,
/// op-class masks of the decoded heads, flat arrays of head readiness,
/// fetch readiness, and launch order, and two wake-driven readiness splits.
/// The [`Warp`] structs stay the source of truth; the table is derived
/// state maintained event-driven (the owning SM refreshes a slot after any
/// mutation of its warp), so scheduler selection and stall classification
/// are mask intersections and popcounts instead of per-warp walks.
///
/// Readiness against the clock is kept relative to the table's last-known
/// cycle ([`Self::now`]). A slot whose head operands or fetch port open
/// later sits in a pending set filed on a timing wheel by wake cycle;
/// [`Self::advance`] drains only the wheel buckets the clock passes, so a
/// cycle in which nothing wakes costs a bit test per set. Capacity is one
/// `u64` of slots — `Sm::new` asserts `max_warps <= 64`.
#[derive(Debug, Clone)]
pub struct WarpTable {
    /// The cycle the readiness masks are relative to.
    now: u64,
    /// Occupied slots (whether or not the warp has finished issuing).
    resident: u64,
    /// Slots whose warp has issued its full instruction budget.
    finished: u64,
    /// Slots parked at a CTA-wide barrier.
    barrier: u64,
    /// Slots with an empty i-buffer (front-end starved).
    ib_empty: u64,
    /// Slots whose head instruction awaits an outstanding global load.
    mem_pending: u64,
    /// Decoded heads by the unit they issue to.
    alu_heads: u64,
    sfu_heads: u64,
    barrier_heads: u64,
    lsu_heads: u64,
    /// Short RAW waits: decoded, not parked at a barrier, head readiness
    /// finite and later than `now`.
    raw: WaitSet,
    /// Fetch port closed until a finite cycle later than `now`.
    fetch_wait: WaitSet,
    /// Fetch port open at `now`.
    fetch_ready: u64,
    /// Sentinel-encoded head readiness per slot (see [`Warp::head_state`]).
    head_ready: Vec<u64>,
    /// Sentinel-encoded fetch readiness (see [`Warp::fetch_ready_at`]).
    fetch_at: Vec<u64>,
    /// Launch-order stamp per slot (greedy-then-oldest key).
    launch_seq: Vec<u64>,
}

impl WarpTable {
    /// An empty table with `n_slots` warp slots (at most 64) whose wait
    /// wheels cover waits of up to `max_wait` cycles without overflow
    /// (see [`crate::SmConfig::max_wait`]); longer waits stay exact but
    /// take a slower path.
    #[must_use]
    pub fn new(n_slots: usize, max_wait: u32) -> Self {
        assert!(
            n_slots <= 64,
            "WarpTable bitmasks hold at most 64 warp slots, got {n_slots}"
        );
        Self {
            now: 0,
            resident: 0,
            finished: 0,
            barrier: 0,
            ib_empty: 0,
            mem_pending: 0,
            alu_heads: 0,
            sfu_heads: 0,
            barrier_heads: 0,
            lsu_heads: 0,
            raw: WaitSet::new(max_wait),
            fetch_wait: WaitSet::new(max_wait),
            fetch_ready: 0,
            head_ready: vec![0; n_slots],
            fetch_at: vec![u64::MAX; n_slots],
            launch_seq: vec![0; n_slots],
        }
    }

    /// Recomputes slot `slot`'s derived state from `warp`. Callers must
    /// invoke this after *any* mutation of the warp (fetch, issue, load
    /// lifecycle, barrier park/release) or the table silently diverges —
    /// the strict-invariant oracle check catches that in debug builds.
    pub fn refresh(&mut self, slot: usize, warp: &Warp) {
        self.resident |= 1u64 << slot;
        self.launch_seq[slot] = warp.launch_seq;
        self.refresh_issued(slot, warp);
    }

    /// The narrower [`Self::refresh`] after a [`Warp::issue`] (and the
    /// barrier park or load registration that may follow it): an issue
    /// leaves residency and the launch stamp alone.
    pub fn refresh_issued(&mut self, slot: usize, warp: &Warp) {
        let bit = 1u64 << slot;
        set_bit(&mut self.finished, bit, warp.finished());
        set_bit(&mut self.barrier, bit, warp.at_barrier);
        self.set_fetch_at(slot, warp.fetch_ready_at());
        self.set_head(slot, warp);
    }

    /// The narrower [`Self::refresh`] after a successful [`Warp::fetch`]:
    /// a fetch leaves residency, finished and barrier state alone and
    /// changes the head only when the i-buffer was empty.
    pub fn refresh_fetched(&mut self, slot: usize, warp: &Warp) {
        self.set_fetch_at(slot, warp.fetch_ready_at());
        if self.ib_empty & (1u64 << slot) != 0 {
            self.set_head(slot, warp);
        }
    }

    /// Re-derives slot `slot`'s head entry: i-buffer and mem-pending bits,
    /// op class, readiness, and RAW wait. Reads the barrier bit, so the
    /// caller must have refreshed it first.
    fn set_head(&mut self, slot: usize, warp: &Warp) {
        let bit = 1u64 << slot;
        self.alu_heads &= !bit;
        self.sfu_heads &= !bit;
        self.barrier_heads &= !bit;
        self.lsu_heads &= !bit;
        let ready = match warp.head_state() {
            Some((ready, op)) => {
                self.ib_empty &= !bit;
                set_bit(&mut self.mem_pending, bit, ready == PENDING_LOAD);
                *match op {
                    OpClass::Alu => &mut self.alu_heads,
                    OpClass::Sfu => &mut self.sfu_heads,
                    OpClass::Barrier => &mut self.barrier_heads,
                    OpClass::GlobalLoad | OpClass::GlobalStore | OpClass::SharedMem => {
                        &mut self.lsu_heads
                    }
                } |= bit;
                ready
            }
            None => {
                self.ib_empty |= bit;
                self.mem_pending &= !bit;
                0
            }
        };
        let old = std::mem::replace(&mut self.head_ready[slot], ready);
        let waits = ready != PENDING_LOAD && ready > self.now && self.barrier & bit == 0;
        self.raw.update(
            slot,
            old,
            waits.then_some(ready),
            self.now,
            &self.head_ready,
        );
    }

    /// Records slot `slot`'s fetch readiness and files it as open, waiting,
    /// or (`u64::MAX`) closed.
    fn set_fetch_at(&mut self, slot: usize, at: u64) {
        let old = std::mem::replace(&mut self.fetch_at[slot], at);
        if old == at {
            // Filed against the same clock already: nothing moves.
            return;
        }
        let waits = at != u64::MAX && at > self.now;
        self.fetch_wait
            .update(slot, old, waits.then_some(at), self.now, &self.fetch_at);
        set_bit(&mut self.fetch_ready, 1u64 << slot, at <= self.now);
    }

    /// Clears slot `slot` back to its vacant canonical state (warp
    /// released or CTA retired).
    pub fn clear(&mut self, slot: usize) {
        let keep = !(1u64 << slot);
        for m in [
            &mut self.resident,
            &mut self.finished,
            &mut self.barrier,
            &mut self.ib_empty,
            &mut self.mem_pending,
            &mut self.alu_heads,
            &mut self.sfu_heads,
            &mut self.barrier_heads,
            &mut self.lsu_heads,
        ] {
            *m &= keep;
        }
        let old = std::mem::replace(&mut self.head_ready[slot], 0);
        self.raw.update(slot, old, None, self.now, &self.head_ready);
        self.set_fetch_at(slot, u64::MAX);
        self.launch_seq[slot] = 0;
    }

    /// Moves the readiness masks to cycle `now`: slots whose RAW wait or
    /// fetch wait ends at or before `now` become ready. Each wait wheel
    /// drains only the buckets of the cycles passed, and a jump of a whole
    /// wheel or more drains all of them at once, so a fast-forwarded span
    /// costs no more than a few ticks. A clock that moves backwards (never
    /// the case under `Sm::tick`) reclassifies every slot.
    #[inline]
    pub fn advance(&mut self, now: u64) {
        let from = self.now;
        self.now = now;
        if now < from {
            self.reclassify();
        } else if now > from {
            let _ = self.raw.advance(from, now, &self.head_ready);
            self.fetch_ready |= self.fetch_wait.advance(from, now, &self.fetch_at);
        }
    }

    /// Rebuilds both wait splits from the per-slot arrays at `self.now`.
    fn reclassify(&mut self) {
        let now = self.now;
        let decoded = self.resident & !self.ib_empty & !self.mem_pending & !self.barrier;
        self.raw.rebuild(decoded, now, &self.head_ready);
        self.fetch_wait.rebuild(self.resident, now, &self.fetch_at);
        self.fetch_ready = 0;
        let mut m = self.resident;
        while m != 0 {
            let slot = m.trailing_zeros() as usize;
            m &= m - 1;
            set_bit(
                &mut self.fetch_ready,
                1u64 << slot,
                self.fetch_at[slot] <= now,
            );
        }
    }

    /// The cycle the readiness masks are relative to (the last
    /// [`Self::advance`]).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Occupied slots.
    #[must_use]
    pub fn resident_mask(&self) -> u64 {
        self.resident
    }

    /// Occupied slots that still have instructions to issue — the
    /// scheduler-candidate universe.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.resident & !self.finished
    }

    /// Slots parked at a barrier.
    #[must_use]
    pub fn barrier_mask(&self) -> u64 {
        self.barrier
    }

    /// Slots with an empty i-buffer.
    #[must_use]
    pub fn ib_empty_mask(&self) -> u64 {
        self.ib_empty
    }

    /// Slots whose head instruction awaits an outstanding global load.
    #[must_use]
    pub fn mem_pending_mask(&self) -> u64 {
        self.mem_pending
    }

    /// Slots not parked at a barrier whose decoded head waits on a short
    /// RAW hazard at [`Self::now`].
    #[must_use]
    pub fn raw_pending_mask(&self) -> u64 {
        self.raw.mask
    }

    /// The earliest cycle a RAW-pending slot's operands become ready
    /// (`u64::MAX` when none waits).
    #[must_use]
    pub fn raw_wake(&self) -> u64 {
        self.raw.wake(self.now)
    }

    /// Slots whose fetch port is open at [`Self::now`].
    #[must_use]
    pub fn fetch_ready_mask(&self) -> u64 {
        self.fetch_ready
    }

    /// Slots whose fetch port opens at a known later cycle.
    #[must_use]
    pub fn fetch_wait_mask(&self) -> u64 {
        self.fetch_wait.mask
    }

    /// The earliest cycle a fetch-waiting slot's port opens (`u64::MAX`
    /// when none waits).
    #[must_use]
    pub fn fetch_wake(&self) -> u64 {
        self.fetch_wait.wake(self.now)
    }

    /// Decoded heads issuing to the ALU.
    #[must_use]
    pub fn alu_heads(&self) -> u64 {
        self.alu_heads
    }

    /// Decoded heads issuing to the SFU.
    #[must_use]
    pub fn sfu_heads(&self) -> u64 {
        self.sfu_heads
    }

    /// Decoded heads that are barriers (they need no unit).
    #[must_use]
    pub fn barrier_heads(&self) -> u64 {
        self.barrier_heads
    }

    /// Decoded heads issuing to the LSU (global loads and stores, shared
    /// memory).
    #[must_use]
    pub fn lsu_heads(&self) -> u64 {
        self.lsu_heads
    }

    /// Sentinel-encoded head readiness for slot `slot`.
    #[must_use]
    pub fn head_ready(&self, slot: usize) -> u64 {
        self.head_ready[slot]
    }

    /// Sentinel-encoded fetch readiness for slot `slot`.
    #[must_use]
    pub fn fetch_at(&self, slot: usize) -> u64 {
        self.fetch_at[slot]
    }

    /// Launch-order stamps, one per slot (scheduler selection key).
    #[must_use]
    pub fn launch_seqs(&self) -> &[u64] {
        &self.launch_seq
    }

    /// Oracle check: asserts every derived entry — masks, arrays, and both
    /// wake minima — matches a fresh recomputation from `warps` at
    /// [`Self::now`]. This is the SoA-vs-oracle contract the strict-invariant
    /// layer runs inside the tick loop in debug builds.
    ///
    /// # Panics
    ///
    /// Panics on any divergence between the table and the warp array.
    pub fn assert_matches(&self, warps: &[Option<Warp>]) {
        assert_eq!(self.head_ready.len(), warps.len(), "slot count mismatch");
        let now = self.now;
        // Expected (slot mask, minimum wake) of each wait set.
        let mut raw = (0u64, u64::MAX);
        let mut fetch_wait = (0u64, u64::MAX);
        let mut fetch_ready = 0u64;
        let mut heads = [0u64; 4];
        for (slot, warp) in warps.iter().enumerate() {
            let bit = 1u64 << slot;
            let Some(w) = warp.as_ref() else {
                assert_eq!(self.resident & bit, 0, "slot {slot}: vacant but resident");
                assert_eq!(self.fetch_at[slot], u64::MAX, "slot {slot}: stale fetch_at");
                continue;
            };
            assert_ne!(self.resident & bit, 0, "slot {slot}: resident bit missing");
            assert_eq!(
                self.finished & bit != 0,
                w.finished(),
                "slot {slot}: finished bit"
            );
            assert_eq!(
                self.barrier & bit != 0,
                w.at_barrier,
                "slot {slot}: barrier bit"
            );
            let f = w.fetch_ready_at();
            assert_eq!(self.fetch_at[slot], f, "slot {slot}: fetch_at");
            if f != u64::MAX && f > now {
                fetch_wait.0 |= bit;
                fetch_wait.1 = fetch_wait.1.min(f);
            } else if f <= now {
                fetch_ready |= bit;
            }
            assert_eq!(
                self.launch_seq[slot], w.launch_seq,
                "slot {slot}: launch_seq"
            );
            match w.head_state() {
                None => {
                    assert_ne!(self.ib_empty & bit, 0, "slot {slot}: ib_empty bit");
                    assert_eq!(self.mem_pending & bit, 0, "slot {slot}: mem_pending bit");
                }
                Some((ready, op)) => {
                    assert_eq!(self.ib_empty & bit, 0, "slot {slot}: ib_empty bit set");
                    assert_eq!(
                        self.mem_pending & bit != 0,
                        ready == PENDING_LOAD,
                        "slot {slot}: mem_pending bit"
                    );
                    assert_eq!(self.head_ready[slot], ready, "slot {slot}: head_ready");
                    let class = match op {
                        OpClass::Alu => 0,
                        OpClass::Sfu => 1,
                        OpClass::Barrier => 2,
                        OpClass::GlobalLoad | OpClass::GlobalStore | OpClass::SharedMem => 3,
                    };
                    heads[class] |= bit;
                    if ready != PENDING_LOAD && ready > now && !w.at_barrier {
                        raw.0 |= bit;
                        raw.1 = raw.1.min(ready);
                    }
                }
            }
        }
        assert_eq!(
            [
                self.alu_heads,
                self.sfu_heads,
                self.barrier_heads,
                self.lsu_heads
            ],
            heads,
            "op-class masks (alu, sfu, barrier, lsu) at cycle {now}"
        );
        self.raw
            .assert_filed(raw, now, &self.head_ready, "RAW-pending");
        self.fetch_wait
            .assert_filed(fetch_wait, now, &self.fetch_at, "fetch-wait");
        assert_eq!(
            self.fetch_ready, fetch_ready,
            "fetch-ready mask at cycle {now}"
        );
    }
}

/// Sets or clears `bit` in `mask`.
fn set_bit(mask: &mut u64, bit: u64, on: bool) {
    if on {
        *mask |= bit;
    } else {
        *mask &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::program::{Inst, Program};

    fn alu(dst: Reg, src: Reg) -> Inst {
        Inst {
            op: OpClass::Alu,
            dst: Some(dst),
            srcs: [Some(src), None],
        }
    }

    fn load(dst: Reg, src: Reg) -> Inst {
        Inst {
            op: OpClass::GlobalLoad,
            dst: Some(dst),
            srcs: [Some(src), None],
        }
    }

    fn kernel_with(insts: Vec<Inst>, iterations: u32) -> KernelDesc {
        KernelDesc {
            name: "w".into(),
            grid_ctas: 1,
            threads_per_cta: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            program: Program::new(insts),
            iterations,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 1,
        }
    }

    fn warp_for(desc: &KernelDesc) -> Warp {
        Warp::new(desc, KernelId(0), 0, 0, 0, 0, 0, 2)
    }

    #[test]
    fn fetch_fills_ibuffer_and_wraps() {
        let desc = kernel_with(vec![alu(0, 1), alu(1, 0)], 2);
        let mut w = warp_for(&desc);
        assert!(w.fetch(0, &desc, 1, 0));
        assert!(!w.ibuffer_empty());
        // Second fetch gated by fetch latency.
        assert!(!w.fetch(0, &desc, 1, 0));
        assert_eq!(w.ib_len, 1);
        w.fetch(1, &desc, 1, 0);
        assert_eq!(w.ib_len, 2);
        // Buffer full: no more fetches.
        w.fetch(2, &desc, 1, 0);
        assert_eq!(w.ib_len, 2);
        // Drain and keep fetching: 4 total instructions then fetch_done.
        let _ = w.issue(2, 1, &desc);
        let _ = w.issue(2, 1, &desc);
        w.fetch(3, &desc, 1, 0);
        w.fetch(4, &desc, 1, 0);
        assert!(w.fetch_done());
        let _ = w.issue(5, 1, &desc);
        let _ = w.issue(5, 1, &desc);
        assert!(w.finished());
    }

    #[test]
    fn raw_hazard_blocks_until_latency_elapses() {
        let desc = kernel_with(vec![alu(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        w.fetch(1, &desc, 1, 0);
        assert_eq!(w.issue_block(0), None);
        let _ = w.issue(0, 10, &desc); // r0 ready at 10
        assert_eq!(w.issue_block(5), Some(IssueBlock::RawPending));
        assert_eq!(w.issue_block(10), None);
    }

    #[test]
    fn load_blocks_consumer_until_fill() {
        let desc = kernel_with(vec![load(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        w.fetch(1, &desc, 1, 0);
        let inst = w.issue(0, 0, &desc);
        assert_eq!(inst.op, OpClass::GlobalLoad);
        let id = w.begin_load(inst.dst.unwrap());
        w.add_load_transaction(id);
        assert!(!w.finish_load_issue(id, 0));
        assert_eq!(w.issue_block(100), Some(IssueBlock::MemPending));
        assert!(w.complete_load_transaction(id, 150));
        assert_eq!(w.issue_block(150), None);
    }

    #[test]
    fn all_hit_load_completes_at_issue() {
        let desc = kernel_with(vec![load(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        let inst = w.issue(0, 0, &desc);
        let id = w.begin_load(inst.dst.unwrap());
        assert!(w.finish_load_issue(id, 28));
        assert_eq!(w.outstanding_loads(), 0);
        assert_eq!(w.issue_block(27), None); // ALU not fetched yet -> None
        w.fetch(1, &desc, 1, 0);
        assert_eq!(w.issue_block(20), Some(IssueBlock::RawPending));
        assert_eq!(w.issue_block(28), None);
    }

    #[test]
    fn waw_on_inflight_load_destination_blocks() {
        // Two loads to the same destination register: the second must wait
        // for the first fill (write-after-write on r0).
        let desc = kernel_with(vec![load(0, 1), load(0, 2)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 0, 0);
        w.fetch(0, &desc, 0, 0);
        let first = w.issue(0, 0, &desc);
        let id = w.begin_load(first.dst.unwrap());
        w.add_load_transaction(id);
        let _ = w.finish_load_issue(id, 0);
        assert_eq!(
            w.issue_block(100),
            Some(IssueBlock::MemPending),
            "second load must stall on the in-flight destination"
        );
        assert!(w.complete_load_transaction(id, 120));
        assert_eq!(w.issue_block(120), None);
    }

    #[test]
    fn stale_fill_is_ignored() {
        let desc = kernel_with(vec![load(0, 1)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 1, 0);
        let _ = w.issue(0, 0, &desc);
        assert!(!w.complete_load_transaction(99, 10));
    }

    #[test]
    fn icache_misses_delay_fetch() {
        let mut desc = kernel_with(vec![alu(0, 1); 100], 10);
        desc.icache_miss_rate = 1.0;
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 2, 40);
        assert_eq!(w.ib_len, 1);
        // Every fetch misses: next fetch not ready until 42.
        w.fetch(41, &desc, 2, 40);
        assert_eq!(w.ib_len, 1);
        w.fetch(42, &desc, 2, 40);
        assert_eq!(w.ib_len, 2);
    }

    #[test]
    fn warp_table_tracks_fetch_issue_and_load_lifecycle() {
        let desc = kernel_with(vec![load(0, 1), alu(2, 0)], 1);
        let mut w = warp_for(&desc);
        let mut t = WarpTable::new(4, 42);
        t.refresh(0, &w);
        assert_eq!(t.resident_mask(), 1);
        assert_eq!(t.live(), 1);
        assert_ne!(t.ib_empty_mask() & 1, 0, "nothing fetched yet");
        assert_eq!(t.fetch_at(0), 0, "fetch port open immediately");
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        w.fetch(0, &desc, 1, 0);
        t.refresh(0, &w);
        assert_eq!(t.ib_empty_mask() & 1, 0);
        assert_eq!(t.lsu_heads(), 1, "a global-load head issues to the LSU");
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        let inst = w.issue(0, 0, &desc);
        let id = w.begin_load(inst.dst.unwrap());
        w.add_load_transaction(id);
        let _ = w.finish_load_issue(id, 0);
        w.fetch(1, &desc, 1, 0);
        t.refresh(0, &w);
        assert_ne!(t.mem_pending_mask() & 1, 0, "consumer blocked on load");
        assert_eq!(t.head_ready(0), PENDING_LOAD);
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        assert!(w.complete_load_transaction(id, 50));
        t.refresh(0, &w);
        assert_eq!(t.mem_pending_mask() & 1, 0);
        assert_eq!(t.head_ready(0), 50);
        assert_eq!(t.raw_pending_mask(), 1, "operands ready at 50, table at 0");
        assert_eq!(t.raw_wake(), 50);
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        // Advancing short of the wake cycle changes nothing; reaching it
        // clears the RAW bit and the wake.
        t.advance(49);
        assert_eq!(t.raw_pending_mask(), 1);
        t.assert_matches(&[Some(w.clone()), None, None, None]);
        t.advance(50);
        assert_eq!(t.raw_pending_mask(), 0);
        assert_eq!(t.raw_wake(), u64::MAX);
        assert_eq!(t.alu_heads(), 1);
        t.assert_matches(&[Some(w.clone()), None, None, None]);

        t.clear(0);
        assert_eq!(t.resident_mask(), 0);
        assert_eq!(t.fetch_at(0), u64::MAX);
        t.assert_matches(&[None, None, None, None]);
    }

    #[test]
    fn warp_table_tracks_barrier_and_finished_bits() {
        let desc = kernel_with(
            vec![Inst {
                op: OpClass::Barrier,
                dst: None,
                srcs: [None, None],
            }],
            1,
        );
        let mut w = warp_for(&desc);
        let mut t = WarpTable::new(2, 42);
        w.fetch(0, &desc, 1, 0);
        let _ = w.issue(0, 0, &desc);
        w.at_barrier = true;
        t.refresh(0, &w);
        assert_ne!(t.barrier_mask() & 1, 0);
        assert_eq!(t.live(), 0, "finished warp leaves the candidate set");
        t.assert_matches(&[Some(w.clone()), None]);
        w.at_barrier = false;
        t.refresh(0, &w);
        assert_eq!(t.barrier_mask(), 0);
    }

    #[test]
    fn wait_sets_track_exact_minimum_and_survive_rewind() {
        let desc = kernel_with(vec![alu(0, 1), alu(2, 0)], 4);
        let mut warps: Vec<Option<Warp>> = (0..3)
            .map(|i| Some(Warp::new(&desc, KernelId(0), 0, 0, i, 0, u64::from(i), 2)))
            .collect();
        let mut t = WarpTable::new(3, 42);
        // Fetch at cycles 0..3 with latency 10: ports reopen at 10, 11, 12.
        for (slot, w) in warps.iter_mut().enumerate() {
            let now = slot as u64;
            t.advance(now);
            let w = w.as_mut().unwrap();
            assert!(w.fetch(now, &desc, 10, 0));
            t.refresh(slot, w);
        }
        assert_eq!(t.fetch_wait_mask(), 0b111);
        assert_eq!(t.fetch_wake(), 10);
        t.assert_matches(&warps);
        // Removing the slot holding the minimum recomputes it exactly.
        warps[0] = None;
        t.clear(0);
        assert_eq!(t.fetch_wake(), 11);
        t.assert_matches(&warps);
        // One long jump wakes everything at once.
        t.advance(1_000);
        assert_eq!(t.fetch_wait_mask(), 0);
        assert_eq!(t.fetch_ready_mask(), 0b110);
        assert_eq!(t.fetch_wake(), u64::MAX);
        t.assert_matches(&warps);
        // A clock moved backwards reclassifies every slot.
        t.advance(11);
        assert_eq!(t.fetch_wait_mask(), 0b100);
        assert_eq!(t.fetch_ready_mask(), 0b010);
        t.assert_matches(&warps);
    }

    /// The timing wheel against a brute-force model (each slot's wake
    /// cycle, or not waiting) over seeded random inserts, moves, removes,
    /// advances of one tick, of up to a wheel, and of a wheel or more, and
    /// backward clocks (the rebuild `reclassify` does). Wheels of 1 to 64
    /// buckets; deltas at the wheel length, just past it, and far past it
    /// (the overflow set). After every step the mask, the exact minimum
    /// and the filing of every slot are checked.
    #[test]
    fn wait_wheel_matches_brute_force_model() {
        use crate::SimRng;
        for max_wait in [1u32, 3, 16, 42, 64, 200] {
            let mut rng = SimRng::seed_from_u64(0x3EE1 + u64::from(max_wait));
            let mut set = WaitSet::new(max_wait);
            let len = set.len();
            let mut at = vec![u64::MAX; 64];
            let mut model: Vec<Option<u64>> = vec![None; 64];
            let mut now = 1_000u64;
            let mut overflowed = false;
            for step in 0..20_000 {
                match rng.range_u64(10) {
                    0..=3 => {
                        let slot = rng.range_usize(64);
                        let delta = match rng.range_u64(4) {
                            0 => len,
                            1 => len + 1,
                            _ => 1 + rng.range_u64(3 * len),
                        };
                        overflowed |= delta > len;
                        let t = now + delta;
                        let old = std::mem::replace(&mut at[slot], t);
                        set.update(slot, old, Some(t), now, &at);
                        model[slot] = Some(t);
                    }
                    4 | 5 => {
                        let slot = rng.range_usize(64);
                        let old = std::mem::replace(&mut at[slot], u64::MAX);
                        set.update(slot, old, None, now, &at);
                        model[slot] = None;
                    }
                    6..=8 => {
                        let to = now
                            + match rng.range_u64(3) {
                                0 => 1,
                                1 => rng.range_u64(len + 1),
                                _ => len + rng.range_u64(2 * len),
                            };
                        let mut expect = 0u64;
                        for (slot, m) in model.iter_mut().enumerate() {
                            if m.is_some_and(|t| t <= to) {
                                expect |= 1u64 << slot;
                                *m = None;
                            }
                        }
                        assert_eq!(set.advance(now, to, &at), expect, "step {step}: woken");
                        now = to;
                    }
                    _ => {
                        now -= rng.range_u64(2 * len + 1).min(now);
                        set.rebuild(u64::MAX, now, &at);
                        for (m, &t) in model.iter_mut().zip(&at) {
                            *m = (t != u64::MAX && t > now).then_some(t);
                        }
                    }
                }
                let mut expect = (0u64, u64::MAX);
                for (slot, m) in model.iter().enumerate() {
                    if let Some(t) = *m {
                        expect.0 |= 1u64 << slot;
                        expect.1 = expect.1.min(t);
                    }
                }
                set.assert_filed(expect, now, &at, "wheel");
            }
            assert!(overflowed, "wheel of {len}: no wait took the overflow set");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 warp slots")]
    fn warp_table_rejects_more_than_64_slots() {
        let _ = WarpTable::new(65, 42);
    }

    #[test]
    #[should_panic(expected = "finished bit")]
    fn warp_table_oracle_catches_divergence() {
        let desc = kernel_with(vec![alu(0, 1)], 1);
        let mut w = warp_for(&desc);
        let mut t = WarpTable::new(1, 42);
        t.refresh(0, &w);
        // Mutate the warp without refreshing: the oracle must object.
        w.fetch(0, &desc, 1, 0);
        let _ = w.issue(0, 1, &desc);
        t.assert_matches(&[Some(w)]);
    }

    #[test]
    fn mem_pending_dominates_raw() {
        let desc = kernel_with(vec![load(0, 1), alu(1, 2), alu(3, 0)], 1);
        let mut w = warp_for(&desc);
        w.fetch(0, &desc, 0, 0);
        let inst = w.issue(0, 0, &desc);
        let id = w.begin_load(inst.dst.unwrap());
        w.add_load_transaction(id);
        let _ = w.finish_load_issue(id, 0);
        w.fetch(1, &desc, 0, 0);
        let _ = w.issue(1, 10, &desc); // r1 ready at 11? (now=1 + 10)
        w.fetch(2, &desc, 0, 0);
        // Head reads r0 (mem-pending): classified as MemPending.
        assert_eq!(w.issue_block(2), Some(IssueBlock::MemPending));
    }
}
