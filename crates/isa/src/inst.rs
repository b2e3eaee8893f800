//! Dynamic instruction records.

use std::fmt;

use crate::OpClass;

/// Identity of one dynamic instruction: its position in the committed
/// instruction stream, starting at zero.
///
/// Data dependences are expressed as producer `InstId`s, so the whole
/// machine state is expressible without architectural registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(u64);

impl InstId {
    /// Creates an instruction id.
    pub fn new(seq: u64) -> Self {
        InstId(seq)
    }

    /// The raw sequence number.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The id `distance` instructions earlier, or `None` if that would
    /// precede the start of the stream.
    pub fn back(self, distance: u64) -> Option<InstId> {
        self.0.checked_sub(distance).map(InstId)
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Processor execution mode of an instruction.
///
/// SimOS simulates kernel as well as user references, which the paper calls
/// out as essential for the multiprogramming and database workloads
/// (Table 2); idle-loop instructions are excluded from IPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Application code.
    #[default]
    User,
    /// Operating-system code.
    Kernel,
    /// The idle loop (spinning on I/O); excluded from performance metrics.
    Idle,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::User => f.write_str("user"),
            ExecMode::Kernel => f.write_str("kernel"),
            ExecMode::Idle => f.write_str("idle"),
        }
    }
}

/// One dynamic instruction as produced by a workload model and consumed by
/// the processor pipeline.
///
/// # Example
///
/// ```
/// use hbc_isa::{DynInst, ExecMode, InstId, OpClass};
///
/// let load = DynInst::new(InstId::new(10), OpClass::Load, ExecMode::User)
///     .with_src(InstId::new(8))
///     .with_addr(0x1000);
/// assert_eq!(load.srcs(), &[Some(InstId::new(8)), None]);
/// assert_eq!(load.addr(), Some(0x1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    id: InstId,
    op: OpClass,
    mode: ExecMode,
    srcs: [Option<InstId>; 2],
    addr: Option<u64>,
    taken: bool,
    mispredicted: bool,
}

impl DynInst {
    /// Creates an instruction with no sources, no address, and a correctly
    /// predicted not-taken branch outcome.
    pub fn new(id: InstId, op: OpClass, mode: ExecMode) -> Self {
        DynInst { id, op, mode, srcs: [None, None], addr: None, taken: false, mispredicted: false }
    }

    /// Adds a source dependence on `producer`.
    ///
    /// # Panics
    ///
    /// Panics if both source slots are already filled or if `producer` does
    /// not precede this instruction.
    pub fn with_src(mut self, producer: InstId) -> Self {
        assert!(producer < self.id, "producer {producer} must precede {}", self.id);
        #[expect(clippy::expect_used, reason = "documented panic on a third source operand")]
        let slot = self
            .srcs
            .iter_mut()
            .find(|s| s.is_none())
            .expect("an instruction has at most two source operands");
        *slot = Some(producer);
        self
    }

    /// Sets the memory address (loads and stores).
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a memory operation.
    pub fn with_addr(mut self, addr: u64) -> Self {
        assert!(self.op.is_mem(), "only loads and stores carry addresses");
        self.addr = Some(addr);
        self
    }

    /// Sets the branch outcome and whether the front end mispredicts it.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a control transfer.
    pub fn with_branch(mut self, taken: bool, mispredicted: bool) -> Self {
        assert!(self.op.is_control(), "only control transfers have outcomes");
        self.taken = taken;
        self.mispredicted = mispredicted;
        self
    }

    /// This instruction's id.
    pub fn id(self) -> InstId {
        self.id
    }

    /// Operation class.
    pub fn op(self) -> OpClass {
        self.op
    }

    /// Execution mode.
    pub fn mode(self) -> ExecMode {
        self.mode
    }

    /// Producer ids of the source operands.
    pub fn srcs(&self) -> &[Option<InstId>; 2] {
        &self.srcs
    }

    /// Memory address, if a load or store.
    pub fn addr(self) -> Option<u64> {
        self.addr
    }

    /// Branch outcome (meaningful only for control transfers).
    pub fn taken(self) -> bool {
        self.taken
    }

    /// `true` if the front end mispredicts this control transfer.
    pub fn mispredicted(self) -> bool {
        self.mispredicted
    }

    /// `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        self.op.is_mem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_id_back() {
        let id = InstId::new(5);
        assert_eq!(id.back(2), Some(InstId::new(3)));
        assert_eq!(id.back(5), Some(InstId::new(0)));
        assert_eq!(id.back(6), None);
    }

    #[test]
    fn builder_fills_both_source_slots() {
        let i = DynInst::new(InstId::new(9), OpClass::IntAlu, ExecMode::User)
            .with_src(InstId::new(1))
            .with_src(InstId::new(4));
        assert_eq!(i.srcs(), &[Some(InstId::new(1)), Some(InstId::new(4))]);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn three_sources_rejected() {
        let _ = DynInst::new(InstId::new(9), OpClass::IntAlu, ExecMode::User)
            .with_src(InstId::new(1))
            .with_src(InstId::new(2))
            .with_src(InstId::new(3));
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn future_producer_rejected() {
        let _ =
            DynInst::new(InstId::new(3), OpClass::IntAlu, ExecMode::User).with_src(InstId::new(3));
    }

    #[test]
    #[should_panic(expected = "only loads and stores")]
    fn address_on_alu_rejected() {
        let _ = DynInst::new(InstId::new(0), OpClass::IntAlu, ExecMode::User).with_addr(0x0);
    }

    #[test]
    fn branch_outcome() {
        let b =
            DynInst::new(InstId::new(2), OpClass::Branch, ExecMode::Kernel).with_branch(true, true);
        assert!(b.taken() && b.mispredicted());
        assert_eq!(b.mode(), ExecMode::Kernel);
    }

    #[test]
    #[should_panic(expected = "control transfers")]
    fn branch_outcome_on_load_rejected() {
        let _ =
            DynInst::new(InstId::new(2), OpClass::Load, ExecMode::User).with_branch(true, false);
    }

    #[test]
    fn displays() {
        assert_eq!(InstId::new(42).to_string(), "i42");
        assert_eq!(ExecMode::Kernel.to_string(), "kernel");
        assert_eq!(ExecMode::default(), ExecMode::User);
    }
}
