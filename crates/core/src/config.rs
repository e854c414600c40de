//! Protocol configuration: mode, BTP policy, optimisation flags and resource
//! limits.

use crate::btp::BtpPolicy;
use crate::error::{Error, Result};
use crate::ops::{CompletionQueue, TruncationPolicy};
use crate::reliability::{GbnConfig, ReliabilityMode};
use serde::{Deserialize, Serialize};

/// Which of the three messaging mechanisms from the paper the endpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolMode {
    /// `BTP = 0`: the classical three-phase / rendezvous protocol.  The push
    /// phase carries no payload and only announces the message; all data
    /// flows in the pull phase after the handshake.
    PushZero,
    /// The paper's contribution: push `BTP` bytes eagerly, pull the rest.
    PushPull,
    /// `BTP = message length`: a purely eager protocol.  Fast when the
    /// receiver is early, but overwhelms the finite pushed buffer when the
    /// receiver is late (Fig. 6, right).
    PushAll,
}

impl ProtocolMode {
    /// All three modes, in the order the paper's figures list them.
    pub const ALL: [ProtocolMode; 3] = [
        ProtocolMode::PushZero,
        ProtocolMode::PushPull,
        ProtocolMode::PushAll,
    ];

    /// The label the paper's figures use for this mode.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolMode::PushZero => "push-zero",
            ProtocolMode::PushPull => "push-pull",
            ProtocolMode::PushAll => "push-all",
        }
    }
}

/// The optimisation techniques of Section 4, individually toggleable so the
/// ablation of Fig. 4 (no optimisation / mask only / overlap only / full) can
/// be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OptFlags {
    /// §4.2 Cross-Space Zero Buffer: one-copy transfers between protected
    /// spaces (and from the NIC buffer straight into the destination buffer).
    /// When disabled, every cross-space transfer costs an extra staging copy.
    pub zero_buffer: bool,
    /// §4.3 Address Translation Overhead Masking: schedule virtual→physical
    /// translation *after* network transmission has been initiated, and
    /// inject the first push from user space (direct thread invocation).
    pub translation_masking: bool,
    /// §4.4 Push-and-Acknowledge Overlapping: split the pushed bytes into
    /// `BTP(1)` + `BTP(2)` and overlap the second push with the returning
    /// acknowledgement.
    pub push_ack_overlap: bool,
    /// §4.1 Exploiting parallelism: run the pull phase (the kernel copy into
    /// the destination buffer) on the least-loaded processor of the node
    /// rather than on the processor running the application thread.
    pub parallel_pull: bool,
}

impl OptFlags {
    /// No optimisations: the raw Push-Pull mechanism of Section 3.
    pub const fn none() -> Self {
        OptFlags {
            zero_buffer: false,
            translation_masking: false,
            push_ack_overlap: false,
            parallel_pull: false,
        }
    }

    /// All four optimisations enabled ("full optimisation" in Fig. 4).
    pub const fn full() -> Self {
        OptFlags {
            zero_buffer: true,
            translation_masking: true,
            push_ack_overlap: true,
            parallel_pull: true,
        }
    }

    /// Address-translation masking only (the `[∆]` series in Fig. 4).
    /// Zero buffer stays enabled because masking is defined on top of it.
    pub const fn mask_only() -> Self {
        OptFlags {
            zero_buffer: true,
            translation_masking: true,
            push_ack_overlap: false,
            parallel_pull: true,
        }
    }

    /// Push-and-acknowledge overlapping only (the `[×]` series in Fig. 4).
    pub const fn overlap_only() -> Self {
        OptFlags {
            zero_buffer: true,
            translation_masking: false,
            push_ack_overlap: true,
            parallel_pull: true,
        }
    }

    /// Baseline used by Fig. 4's "no optimization" series: zero buffer and
    /// parallel pull are part of the base implementation, but neither masking
    /// nor overlapping is applied.
    pub const fn baseline() -> Self {
        OptFlags {
            zero_buffer: true,
            translation_masking: false,
            push_ack_overlap: false,
            parallel_pull: true,
        }
    }

    /// The paper's label for this combination in Fig. 4, when it matches one
    /// of the four measured series.
    pub fn figure4_label(&self) -> &'static str {
        match (self.translation_masking, self.push_ack_overlap) {
            (false, false) => "no optimization",
            (true, false) => "mask only",
            (false, true) => "overlap only",
            (true, true) => "full optimization",
        }
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags::full()
    }
}

/// Complete configuration of one protocol endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Which messaging mechanism to run.
    pub mode: ProtocolMode,
    /// BTP policy used for internode peers.
    pub internode_btp: BtpPolicy,
    /// BTP policy used for intranode peers (the paper uses a single 16-byte
    /// BTP for the intranode experiments).
    pub intranode_btp: BtpPolicy,
    /// Optimisation flags.
    pub opts: OptFlags,
    /// Capacity of the pushed buffer in bytes (per endpoint).  Unexpected
    /// pushed data beyond this capacity is dropped and recovered by
    /// go-back-N retransmission.  Fig. 3 uses 12 KiB, Fig. 6 uses 4 KiB.
    pub pushed_buffer_capacity: usize,
    /// Maximum payload bytes carried by a single **wire** packet: the
    /// Ethernet MTU minus protocol headers.  It fragments every internode
    /// frame, and the push phase on both paths (push fragments are admitted
    /// against the pushed buffer one packet at a time).  The **intranode pull
    /// phase ignores it**: shared memory has no MTU, so a pulled remainder
    /// crosses the node in fixed
    /// [`INTRANODE_PULL_CHUNK`](crate::INTRANODE_PULL_CHUNK) (64 KiB) pieces.
    pub max_payload: usize,
    /// Go-back-N transport configuration for internode channels.  Shared by
    /// both reliability modes: the window / RTO / retry knobs mean the same
    /// thing to selective repeat.
    pub gbn: GbnConfig,
    /// Which ARQ scheme internode channels run: the paper's go-back-N
    /// (default) or selective repeat for lossy / high-fan-in links.
    pub reliability: ReliabilityMode,
    /// Whether intranode transfers bypass the go-back-N layer (shared memory
    /// is reliable, so they always can; disabling this is only useful for
    /// testing the ARQ logic over a lossy in-memory channel).
    pub reliable_intranode: bool,
}

impl ProtocolConfig {
    /// Configuration used for the paper's intranode experiments (Fig. 3):
    /// 16-byte BTP, 12 KiB pushed buffer, full optimisation.
    pub fn paper_intranode() -> Self {
        ProtocolConfig {
            mode: ProtocolMode::PushPull,
            internode_btp: BtpPolicy::INTERNODE_DEFAULT,
            intranode_btp: BtpPolicy::INTRANODE_DEFAULT,
            opts: OptFlags::full(),
            pushed_buffer_capacity: 12 * 1024,
            max_payload: 1460,
            gbn: GbnConfig::default(),
            reliability: ReliabilityMode::default(),
            reliable_intranode: true,
        }
    }

    /// Configuration used for the paper's internode experiments (Fig. 4):
    /// `BTP(1)=80`, `BTP(2)=680`, 4 KiB pushed buffer.
    pub fn paper_internode() -> Self {
        ProtocolConfig {
            mode: ProtocolMode::PushPull,
            internode_btp: BtpPolicy::INTERNODE_DEFAULT,
            intranode_btp: BtpPolicy::INTRANODE_DEFAULT,
            opts: OptFlags::full(),
            pushed_buffer_capacity: 4 * 1024,
            max_payload: 1460,
            gbn: GbnConfig::default(),
            reliability: ReliabilityMode::default(),
            reliable_intranode: true,
        }
    }

    /// Sets the protocol mode, consuming and returning the configuration.
    pub fn with_mode(mut self, mode: ProtocolMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the optimisation flags, consuming and returning the configuration.
    pub fn with_opts(mut self, opts: OptFlags) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the pushed-buffer capacity, consuming and returning the
    /// configuration.
    pub fn with_pushed_buffer(mut self, bytes: usize) -> Self {
        self.pushed_buffer_capacity = bytes;
        self
    }

    /// Sets the reliability mode for internode channels, consuming and
    /// returning the configuration.
    pub fn with_reliability(mut self, mode: ReliabilityMode) -> Self {
        self.reliability = mode;
        self
    }

    /// Sets the internode BTP policy, consuming and returning the
    /// configuration.
    pub fn with_internode_btp(mut self, policy: BtpPolicy) -> Self {
        self.internode_btp = policy;
        self
    }

    /// Sets the intranode BTP policy, consuming and returning the
    /// configuration.
    pub fn with_intranode_btp(mut self, policy: BtpPolicy) -> Self {
        self.intranode_btp = policy;
        self
    }

    /// Validates the configuration, returning a descriptive error for any
    /// field outside its legal range.
    pub fn validate(&self) -> Result<()> {
        if self.max_payload == 0 {
            return Err(Error::InvalidConfig {
                what: "max_payload must be non-zero".into(),
            });
        }
        if self.max_payload > crate::INTRANODE_PULL_CHUNK {
            return Err(Error::InvalidConfig {
                what: format!("max_payload {} exceeds 64 KiB", self.max_payload),
            });
        }
        if self.gbn.window == 0 {
            return Err(Error::InvalidConfig {
                what: "go-back-N window must be at least 1".into(),
            });
        }
        if self.pushed_buffer_capacity < self.intranode_btp.min_pushed_buffer()
            || self.pushed_buffer_capacity < self.internode_btp.min_pushed_buffer()
        {
            return Err(Error::InvalidConfig {
                what: format!(
                    "pushed buffer of {} bytes is smaller than the BTP policy requires",
                    self.pushed_buffer_capacity
                ),
            });
        }
        Ok(())
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::paper_internode()
    }
}

/// Per-endpoint configuration overrides, applied on top of a backend's
/// shared [`ProtocolConfig`].
///
/// Historically every backend hardwired the same defaults for all of its
/// endpoints: the completion-retention cap
/// ([`DEFAULT_COMPLETION_RETENTION`](crate::DEFAULT_COMPLETION_RETENTION)),
/// the go-back-N window, and the BTP eager threshold all came from the
/// cluster-wide protocol configuration, and the truncation policy had to be
/// spelled out on every posted receive.  `EndpointConfig` is the builder
/// that makes these **per endpoint**: pass it to a backend's `*_with`
/// constructor (`HostCluster::add_endpoint_with`,
/// `LoopbackCluster::add_endpoint_with`, `Reactor::add_endpoint_with`) or
/// apply it to an existing endpoint through the facade front-end.
///
/// Every field is optional; an unset field keeps the backend's default.
///
/// ```
/// use ppmsg_core::{EndpointConfig, TruncationPolicy};
///
/// let cfg = EndpointConfig::new()
///     .completion_retention(256)          // evict unclaimed results beyond 256
///     .truncation(TruncationPolicy::Truncate) // default for convenience receives
///     .gbn_window(16)                     // wider internode in-flight window
///     .eager_threshold(256);              // push 256 bytes before the pull
/// assert_eq!(cfg.retention(), Some(256));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EndpointConfig {
    completion_retention: Option<usize>,
    truncation: Option<TruncationPolicy>,
    gbn_window: Option<usize>,
    eager_threshold: Option<usize>,
    reliability: Option<ReliabilityMode>,
    shards: Option<usize>,
}

impl EndpointConfig {
    /// A configuration with every override unset (backend defaults apply).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of unclaimed completions this endpoint retains before
    /// evicting the oldest unawaited ones
    /// ([`CompletionQueue::set_retention`]); evictions are surfaced through
    /// `EndpointStats::completions_evicted`.
    pub fn completion_retention(mut self, cap: usize) -> Self {
        self.completion_retention = Some(cap);
        self
    }

    /// Sets the default [`TruncationPolicy`] used by the front-end's
    /// convenience receives that do not spell a policy out.
    ///
    /// This field is a **front-end** setting: it takes effect through the
    /// facade's `Endpoint::with_config` (which owns the convenience
    /// receives), not through a backend's `*_with` constructor — backends
    /// only consume the protocol-and-queue overrides (retention, window,
    /// eager threshold).  When constructing through a backend, apply the
    /// same config on both layers:
    /// `Endpoint::with_config(cluster.add_endpoint_with(id, &cfg), &cfg)`.
    pub fn truncation(mut self, policy: TruncationPolicy) -> Self {
        self.truncation = Some(policy);
        self
    }

    /// Overrides the go-back-N window (maximum unacknowledged data frames in
    /// flight) for this endpoint's internode channels.
    pub fn gbn_window(mut self, window: usize) -> Self {
        self.gbn_window = Some(window);
        self
    }

    /// Overrides the BTP eager threshold: messages are pushed eagerly up to
    /// `bytes` (a single, non-split `BTP = bytes` on both the intranode and
    /// internode paths) and pulled beyond it.
    pub fn eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = Some(bytes);
        self
    }

    /// Overrides the ARQ scheme this endpoint's internode channels run —
    /// [`ReliabilityMode::SelectiveRepeat`] for lossy or high-fan-in links,
    /// [`ReliabilityMode::GoBackN`] (the paper's scheme) otherwise.  Like the
    /// window override, this is applied at engine construction, so pass it to
    /// a backend's `*_with` constructor.
    pub fn reliability(mut self, mode: ReliabilityMode) -> Self {
        self.reliability = Some(mode);
        self
    }

    /// Partitions the endpoint's matching/completion state across `count`
    /// engine shards keyed by peer (see
    /// [`ShardedEngine`](crate::sharded::ShardedEngine)): traffic from
    /// independent peers progresses under independent locks.  `1` (the
    /// default) keeps a single shard — identical locking behaviour to an
    /// unsharded endpoint.  Backends that host the engine behind a lock
    /// honor this; note that [`ANY_SOURCE`](crate::types::ANY_SOURCE)
    /// receives are rejected with [`Error::ShardedWildcard`](crate::Error)
    /// when more than one shard is configured.
    pub fn shards(mut self, count: usize) -> Self {
        self.shards = Some(count.max(1));
        self
    }

    /// The configured shard count (`1` when unset).
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(1)
    }

    /// The configured retention cap, if any.
    pub fn retention(&self) -> Option<usize> {
        self.completion_retention
    }

    /// The default truncation policy for convenience receives
    /// ([`TruncationPolicy::Error`] unless overridden).
    pub fn default_truncation(&self) -> TruncationPolicy {
        self.truncation.unwrap_or_default()
    }

    /// Applies the protocol-level overrides (go-back-N window, BTP eager
    /// threshold) to a backend's base [`ProtocolConfig`], returning the
    /// per-endpoint configuration the engine should be built with.
    pub fn apply_protocol(&self, mut base: ProtocolConfig) -> ProtocolConfig {
        if let Some(window) = self.gbn_window {
            base.gbn.window = window;
        }
        if let Some(bytes) = self.eager_threshold {
            base.intranode_btp = BtpPolicy::single(bytes);
            base.internode_btp = BtpPolicy::single(bytes);
        }
        if let Some(mode) = self.reliability {
            base.reliability = mode;
        }
        base
    }

    /// Applies the completion-retention override to an endpoint's
    /// [`CompletionQueue`] (no-op when unset).
    pub fn apply_retention(&self, queue: &mut CompletionQueue) {
        if let Some(cap) = self.completion_retention {
            queue.set_retention(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ProtocolConfig::default().validate().unwrap();
        ProtocolConfig::paper_intranode().validate().unwrap();
        ProtocolConfig::paper_internode().validate().unwrap();
    }

    #[test]
    fn invalid_payload_rejected() {
        let mut cfg = ProtocolConfig {
            max_payload: 0,
            ..ProtocolConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.max_payload = 1 << 20;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn pushed_buffer_must_hold_btp() {
        let cfg = ProtocolConfig::default()
            .with_internode_btp(BtpPolicy::split(80, 680))
            .with_pushed_buffer(100);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn figure4_labels() {
        assert_eq!(OptFlags::baseline().figure4_label(), "no optimization");
        assert_eq!(OptFlags::mask_only().figure4_label(), "mask only");
        assert_eq!(OptFlags::overlap_only().figure4_label(), "overlap only");
        assert_eq!(OptFlags::full().figure4_label(), "full optimization");
    }

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(ProtocolMode::PushZero.label(), "push-zero");
        assert_eq!(ProtocolMode::PushPull.label(), "push-pull");
        assert_eq!(ProtocolMode::PushAll.label(), "push-all");
        assert_eq!(ProtocolMode::ALL.len(), 3);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = ProtocolConfig::paper_internode()
            .with_mode(ProtocolMode::PushAll)
            .with_opts(OptFlags::overlap_only())
            .with_pushed_buffer(8192)
            .with_intranode_btp(BtpPolicy::single(32));
        assert_eq!(cfg.mode, ProtocolMode::PushAll);
        assert!(!cfg.opts.translation_masking);
        assert_eq!(cfg.pushed_buffer_capacity, 8192);
        assert_eq!(cfg.intranode_btp.total(), 32);
        cfg.validate().unwrap();
    }

    #[test]
    fn gbn_window_validated() {
        let mut cfg = ProtocolConfig::default();
        cfg.gbn.window = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn endpoint_config_overrides_apply() {
        let cfg = EndpointConfig::new()
            .completion_retention(7)
            .truncation(TruncationPolicy::Truncate)
            .gbn_window(3)
            .eager_threshold(128)
            .reliability(ReliabilityMode::SelectiveRepeat);
        assert_eq!(cfg.retention(), Some(7));
        assert_eq!(cfg.default_truncation(), TruncationPolicy::Truncate);
        let proto = cfg.apply_protocol(ProtocolConfig::paper_internode());
        assert_eq!(proto.gbn.window, 3);
        assert_eq!(proto.reliability, ReliabilityMode::SelectiveRepeat);
        assert_eq!(proto.internode_btp, BtpPolicy::single(128));
        assert_eq!(proto.intranode_btp, BtpPolicy::single(128));
        proto.validate().unwrap();

        let mut queue = CompletionQueue::new();
        cfg.apply_retention(&mut queue);
        for slot in 0..10u32 {
            queue.push(crate::ops::Completion {
                op: crate::ops::OpId::Send(crate::ops::SendOp::from_raw(slot, 0)),
                peer: crate::types::ProcessId::new(0, 1),
                tag: crate::types::Tag(0),
                len: 0,
                status: crate::ops::Status::Ok,
                data: None,
                buf: None,
            });
        }
        assert_eq!(queue.len(), 7, "retention cap applied");
    }

    #[test]
    fn unset_endpoint_config_changes_nothing() {
        let cfg = EndpointConfig::new();
        assert_eq!(cfg.retention(), None);
        assert_eq!(cfg.default_truncation(), TruncationPolicy::Error);
        let base = ProtocolConfig::paper_internode();
        assert_eq!(cfg.apply_protocol(base.clone()), base);
    }
}
