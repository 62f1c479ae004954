//! Per-round, per-device execution traces — the observability layer.
//!
//! Both engines emit one [`RoundRecord`] per (round, device) through a
//! [`TraceSink`]: what the device computed, packed, sent, received, waited
//! for and absorbed in that round, plus the frontier it started from and
//! (for hybrid programs) the direction it chose. This is the per-phase
//! attribution the paper's methodology is built on (compute vs.
//! communication vs. wait, §III-B/§III-D) made inspectable per round, so a
//! convergence or timing regression reads as a narrative ("device 2 stalled
//! on round 7 waiting for the NIC") instead of a bare assert.
//!
//! Three sinks cover the use cases:
//!
//! * [`NoopSink`] — the default; reports `enabled() == false`, letting the
//!   engines skip record assembly entirely (no overhead on normal runs);
//! * [`CollectingSink`] — in-memory, for tests and report summaries;
//! * [`JsonLinesSink`] — streams one JSON object per record, for the bench
//!   binaries' `--trace <path>` flag.

use std::io::Write;

use dirgl_comm::SimTime;

/// Which engine produced a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Bulk-synchronous: `round` is the global round number.
    Bsp,
    /// Bulk-asynchronous: `round` is the device's local round ordinal.
    Basp,
}

impl EngineKind {
    /// Lower-case name as printed in traces.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Bsp => "bsp",
            EngineKind::Basp => "basp",
        }
    }
}

/// Compute direction a round ran in (hybrid programs switch per round).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDirection {
    /// Frontier pushed along out-edges.
    Push,
    /// Vertices pulled over in-edges (topology-driven pull or the hybrid
    /// bottom-up phase).
    Pull,
}

impl TraceDirection {
    /// Lower-case name as printed in traces.
    pub fn name(self) -> &'static str {
        match self {
            TraceDirection::Push => "push",
            TraceDirection::Pull => "pull",
        }
    }
}

/// Everything one device did in one (global or local) round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Engine that produced the record.
    pub engine: EngineKind,
    /// 0-based round: global under BSP, the device's local ordinal under
    /// BASP.
    pub round: u32,
    /// Device index.
    pub device: u32,
    /// Direction the compute phase ran in.
    pub direction: TraceDirection,
    /// Active vertices on this device when the round started.
    pub frontier: u64,
    /// Kernel time of the compute phase.
    pub compute: SimTime,
    /// Device-side extraction (pack) time charged this round.
    pub pack: SimTime,
    /// Time this device spent blocked on inbound messages this round.
    pub wait: SimTime,
    /// Wire bytes this device sent this round.
    pub bytes_sent: u64,
    /// Wire bytes applied on this device this round.
    pub bytes_received: u64,
    /// Messages this device sent this round.
    pub messages_sent: u64,
    /// Messages applied on this device this round.
    pub messages_received: u64,
    /// Masters whose canonical value changed in this round's absorb.
    pub absorb_changed: u32,
    /// The device's virtual clock when the round ended.
    pub clock_end: SimTime,
}

/// A fault-layer incident: something the fault injector did, the reliable
/// transport absorbed, or the recovery machinery performed. Emitted
/// through [`TraceSink::fault`] alongside the per-round records, so a
/// trace of a faulty run reads as one chronology.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// The injector hurt something: a crash or straggler window on
    /// `device`, or a link fault attributed to the sending device.
    /// `kind` ∈ {`crash`, `straggler`, `straggler-end`, `link-drop`,
    /// `link-duplicate`, `link-delay`}.
    FaultInjected {
        /// When (simulated).
        at: SimTime,
        /// Affected device (sender, for link faults).
        device: u32,
        /// What kind of fault.
        kind: &'static str,
    },
    /// A sender's ack timer expired.
    Timeout {
        /// When the timer fired.
        at: SimTime,
        /// Sending device.
        from: u32,
        /// Unresponsive receiver.
        to: u32,
        /// Transmission attempt that timed out (0 = first send).
        attempt: u32,
    },
    /// A sender retransmitted a lost message.
    Retransmit {
        /// When the retransmission departed.
        at: SimTime,
        /// Sending device.
        from: u32,
        /// Receiving device.
        to: u32,
        /// Attempt number of the retransmission (≥ 1).
        attempt: u32,
    },
    /// A checkpoint of every device's state was captured.
    CheckpointTaken {
        /// When the capture completed (simulated).
        at: SimTime,
        /// Round the checkpoint represents (replay resumes here).
        round: u32,
        /// Paper-equivalent bytes captured.
        bytes: u64,
    },
    /// A crash was detected and every device rolled back to the last
    /// checkpoint.
    Rollback {
        /// Detection + restore completion time.
        at: SimTime,
        /// Round execution resumes from.
        to_round: u32,
        /// Device whose crash forced the rollback.
        device: u32,
    },
    /// A dead device's masters were permanently reassigned to a survivor
    /// (graceful degradation).
    MastersReassigned {
        /// When the reassignment took effect.
        at: SimTime,
        /// Dead device.
        from_device: u32,
        /// Surviving adopter.
        to_device: u32,
        /// Master vertices moved.
        masters: u64,
    },
}

impl FaultEvent {
    /// Lower-case event name as printed in traces.
    pub fn name(&self) -> &'static str {
        match self {
            FaultEvent::FaultInjected { .. } => "fault_injected",
            FaultEvent::Timeout { .. } => "timeout",
            FaultEvent::Retransmit { .. } => "retransmit",
            FaultEvent::CheckpointTaken { .. } => "checkpoint_taken",
            FaultEvent::Rollback { .. } => "rollback",
            FaultEvent::MastersReassigned { .. } => "masters_reassigned",
        }
    }

    /// The event as one JSON object (hand-written, like
    /// [`RoundRecord::to_json`]).
    pub fn to_json(&self) -> String {
        match self {
            FaultEvent::FaultInjected { at, device, kind } => format!(
                "{{\"event\":\"fault_injected\",\"at_s\":{:.9},\"device\":{},\"kind\":\"{}\"}}",
                at.as_secs_f64(),
                device,
                kind
            ),
            FaultEvent::Timeout {
                at,
                from,
                to,
                attempt,
            } => format!(
                "{{\"event\":\"timeout\",\"at_s\":{:.9},\"from\":{},\"to\":{},\"attempt\":{}}}",
                at.as_secs_f64(),
                from,
                to,
                attempt
            ),
            FaultEvent::Retransmit {
                at,
                from,
                to,
                attempt,
            } => format!(
                "{{\"event\":\"retransmit\",\"at_s\":{:.9},\"from\":{},\"to\":{},\"attempt\":{}}}",
                at.as_secs_f64(),
                from,
                to,
                attempt
            ),
            FaultEvent::CheckpointTaken { at, round, bytes } => format!(
                "{{\"event\":\"checkpoint_taken\",\"at_s\":{:.9},\"round\":{},\"bytes\":{}}}",
                at.as_secs_f64(),
                round,
                bytes
            ),
            FaultEvent::Rollback {
                at,
                to_round,
                device,
            } => format!(
                "{{\"event\":\"rollback\",\"at_s\":{:.9},\"to_round\":{},\"device\":{}}}",
                at.as_secs_f64(),
                to_round,
                device
            ),
            FaultEvent::MastersReassigned {
                at,
                from_device,
                to_device,
                masters,
            } => format!(
                concat!(
                    "{{\"event\":\"masters_reassigned\",\"at_s\":{:.9},",
                    "\"from_device\":{},\"to_device\":{},\"masters\":{}}}"
                ),
                at.as_secs_f64(),
                from_device,
                to_device,
                masters
            ),
        }
    }
}

impl RoundRecord {
    /// The record as one JSON object (hand-written: the workspace has no
    /// JSON library).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"engine\":\"{}\",\"round\":{},\"device\":{},",
                "\"direction\":\"{}\",\"frontier\":{},",
                "\"compute_s\":{:.9},\"pack_s\":{:.9},\"wait_s\":{:.9},",
                "\"bytes_sent\":{},\"bytes_received\":{},",
                "\"messages_sent\":{},\"messages_received\":{},",
                "\"absorb_changed\":{},\"clock_end_s\":{:.9}}}"
            ),
            self.engine.name(),
            self.round,
            self.device,
            self.direction.name(),
            self.frontier,
            self.compute.as_secs_f64(),
            self.pack.as_secs_f64(),
            self.wait.as_secs_f64(),
            self.bytes_sent,
            self.bytes_received,
            self.messages_sent,
            self.messages_received,
            self.absorb_changed,
            self.clock_end.as_secs_f64(),
        )
    }
}

/// Receiver of per-round records.
///
/// The engines consult [`TraceSink::enabled`] once per round and skip all
/// record assembly when it returns false, so the default [`NoopSink`] costs
/// one virtual call per round and nothing else.
pub trait TraceSink {
    /// Whether the engines should assemble and deliver records at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one record.
    fn record(&mut self, rec: RoundRecord);

    /// Delivers one fault-layer event. Default: discard — sinks that
    /// predate the fault layer keep working unchanged.
    fn fault(&mut self, ev: FaultEvent) {
        let _ = ev;
    }

    /// Called once when the run completes (writers flush here).
    fn finish(&mut self) {}
}

/// Discards everything; `enabled()` is false so engines skip assembly.
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _rec: RoundRecord) {}
}

/// Accumulates records in memory (tests, report summaries).
#[derive(Default)]
pub struct CollectingSink {
    /// Records in delivery order.
    pub records: Vec<RoundRecord>,
    /// Fault events in delivery order.
    pub faults: Vec<FaultEvent>,
}

impl CollectingSink {
    /// Empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }
}

impl TraceSink for CollectingSink {
    fn record(&mut self, rec: RoundRecord) {
        self.records.push(rec);
    }

    fn fault(&mut self, ev: FaultEvent) {
        self.faults.push(ev);
    }
}

/// Streams records as JSON-lines to any writer.
pub struct JsonLinesSink<W: Write> {
    out: W,
    /// Optional `"run"` label stamped into every record (bench binaries set
    /// one per configuration so a multi-run trace file stays attributable).
    label: Option<String>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Sink writing to `out`.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink { out, label: None }
    }

    /// Sets the `"run"` label stamped into subsequent records.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = Some(label.into());
    }
}

impl<W: Write> JsonLinesSink<W> {
    fn emit(&mut self, body: String) {
        let line = match &self.label {
            Some(label) => {
                // Splice the label in as the first field.
                format!("{{\"run\":\"{}\",{}", label, &body[1..])
            }
            None => body,
        };
        // Trace emission is best-effort: an unwritable sink must not abort
        // a simulation that is otherwise succeeding.
        let _ = writeln!(self.out, "{line}");
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn record(&mut self, rec: RoundRecord) {
        let body = rec.to_json();
        self.emit(body);
    }

    fn fault(&mut self, ev: FaultEvent) {
        let body = ev.to_json();
        self.emit(body);
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// Forwards to an outer sink while also collecting (the runtime uses this
/// to build report summaries without stealing the caller's records).
pub(crate) struct ForkSink<'a> {
    pub outer: &'a mut dyn TraceSink,
    pub collected: CollectingSink,
}

impl TraceSink for ForkSink<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, rec: RoundRecord) {
        if self.outer.enabled() {
            self.outer.record(rec.clone());
        }
        self.collected.record(rec);
    }

    fn fault(&mut self, ev: FaultEvent) {
        if self.outer.enabled() {
            self.outer.fault(ev.clone());
        }
        self.collected.fault(ev);
    }

    fn finish(&mut self) {
        self.outer.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RoundRecord {
        RoundRecord {
            engine: EngineKind::Bsp,
            round: 3,
            device: 1,
            direction: TraceDirection::Push,
            frontier: 42,
            compute: SimTime::from_secs_f64(0.5),
            pack: SimTime::ZERO,
            wait: SimTime::from_secs_f64(0.25),
            bytes_sent: 1024,
            bytes_received: 512,
            messages_sent: 2,
            messages_received: 1,
            absorb_changed: 7,
            clock_end: SimTime::from_secs_f64(1.0),
        }
    }

    #[test]
    fn json_has_every_field_once() {
        let j = record().to_json();
        for key in [
            "engine",
            "round",
            "device",
            "direction",
            "frontier",
            "compute_s",
            "pack_s",
            "wait_s",
            "bytes_sent",
            "bytes_received",
            "messages_sent",
            "messages_received",
            "absorb_changed",
            "clock_end_s",
        ] {
            assert_eq!(j.matches(&format!("\"{key}\":")).count(), 1, "{key} in {j}");
        }
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn noop_is_disabled_collector_collects() {
        assert!(!NoopSink.enabled());
        let mut c = CollectingSink::new();
        assert!(c.enabled());
        c.record(record());
        assert_eq!(c.records.len(), 1);
    }

    #[test]
    fn fault_events_serialize_and_flow_through_sinks() {
        let ev = FaultEvent::Rollback {
            at: SimTime::from_secs_f64(1.5),
            to_round: 4,
            device: 2,
        };
        let j = ev.to_json();
        assert!(j.starts_with("{\"event\":\"rollback\""));
        assert!(j.contains("\"to_round\":4"));
        assert!(j.contains("\"device\":2"));
        assert_eq!(ev.name(), "rollback");

        let mut c = CollectingSink::new();
        c.fault(ev.clone());
        assert_eq!(c.faults, vec![ev.clone()]);

        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf);
            sink.set_label("faulty");
            sink.fault(ev);
            sink.finish();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"run\":\"faulty\",\"event\":\"rollback\""));

        // Default impl discards without complaint.
        NoopSink.fault(FaultEvent::Timeout {
            at: SimTime::ZERO,
            from: 0,
            to: 1,
            attempt: 0,
        });
    }

    #[test]
    fn every_fault_event_kind_has_valid_json() {
        let evs = [
            FaultEvent::FaultInjected {
                at: SimTime::ZERO,
                device: 0,
                kind: "crash",
            },
            FaultEvent::Timeout {
                at: SimTime::ZERO,
                from: 0,
                to: 1,
                attempt: 2,
            },
            FaultEvent::Retransmit {
                at: SimTime::ZERO,
                from: 0,
                to: 1,
                attempt: 1,
            },
            FaultEvent::CheckpointTaken {
                at: SimTime::ZERO,
                round: 3,
                bytes: 99,
            },
            FaultEvent::Rollback {
                at: SimTime::ZERO,
                to_round: 0,
                device: 1,
            },
            FaultEvent::MastersReassigned {
                at: SimTime::ZERO,
                from_device: 1,
                to_device: 0,
                masters: 512,
            },
        ];
        for ev in evs {
            let j = ev.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains(&format!("\"event\":\"{}\"", ev.name())), "{j}");
        }
    }

    #[test]
    fn json_sink_writes_lines_with_label() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf);
            sink.record(record());
            sink.set_label("bfs/rmat25");
            sink.record(record());
            sink.finish();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].contains("\"run\""));
        assert!(lines[1].starts_with("{\"run\":\"bfs/rmat25\","));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }
}
