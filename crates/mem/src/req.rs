//! Memory request/response transaction types.

/// A transaction tag, carried unchanged from request to response.
///
/// Mirrors the paper's elastic-pipeline tags (§4.4): *"requests are assigned
/// tags, which consist of the instruction PC and wavefront identifier that
/// track the life cycle of instructions"*. The simulator packs an arbitrary
/// 64-bit id; the core encodes `(wavefront, pc, slot)` into it and the trace
/// infrastructure decodes it back.
pub type Tag = u64;

/// A timing-model memory request (no data payload — see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Requester-chosen tag returned on the response.
    pub tag: Tag,
    /// Byte address of the access.
    pub addr: u32,
    /// `true` for stores.
    pub write: bool,
}

impl MemReq {
    /// Convenience constructor for a read.
    pub fn read(tag: Tag, addr: u32) -> Self {
        Self {
            tag,
            addr,
            write: false,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(tag: Tag, addr: u32) -> Self {
        Self {
            tag,
            addr,
            write: true,
        }
    }
}

/// A timing-model memory response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRsp {
    /// The tag of the originating request.
    pub tag: Tag,
}

vortex_snapshot::snapshot! {
    impl Snap for MemReq { tag, addr, write }
}

vortex_snapshot::snapshot! {
    impl Snap for MemRsp { tag }
}
