//! Waveform recorder: per-cycle channel handshake capture into VCD.
//!
//! Every selected channel contributes three wires — `<name>.valid` (a
//! token is present), `<name>.ready` (the channel can accept one), and
//! `<name>.tag` (the front token's tag, `x` when absent or untagged).
//! Capture happens once per *active* cycle at the post-fixpoint channel
//! state, read through [`CircuitView`]; both simulation cores reach that
//! state identically and name their channels from the same [`Netlist`],
//! so their dumps are byte-identical. Idle stretches change no channel,
//! so the change-based writer skips them for free.

use crate::netlist::Netlist;
use crate::stall::CircuitView;
use graphiti_ir::Tag;
use graphiti_obs::vcd::{SignalId, VcdValue, VcdWriter};

/// Records selected channels' handshake state, one sample per active
/// cycle, into a [`VcdWriter`].
pub(crate) struct WaveRecorder {
    /// `(channel id, [valid, ready, tag] signal ids)` per selected channel.
    chans: Vec<(usize, [SignalId; 3])>,
    writer: VcdWriter,
}

impl WaveRecorder {
    /// Declares the three wires of every channel of `net` — or, under a
    /// non-empty `trace_nodes` filter, of every channel touching a listed
    /// node.
    pub(crate) fn new(net: &Netlist, trace_nodes: &[String]) -> WaveRecorder {
        let mut writer = VcdWriter::new();
        let listed = net.listed(trace_nodes);
        let chans = (0..net.chan_count())
            .filter(|&c| {
                [net.producer(c), net.consumer(c)].into_iter().flatten().any(|j| listed[j])
            })
            .map(|c| {
                let name = net.chan_name(c);
                let valid = writer.add_wire(&format!("{name}.valid"), 1);
                let ready = writer.add_wire(&format!("{name}.ready"), 1);
                let tag = writer.add_wire(&format!("{name}.tag"), Tag::BITS);
                (c, [valid, ready, tag])
            })
            .collect();
        WaveRecorder { chans, writer }
    }

    /// Samples every selected channel of `v` at cycle `now`.
    pub(crate) fn sample(&mut self, v: &impl CircuitView, now: u64) {
        for &(c, [valid, ready, tag]) in &self.chans {
            self.writer.change(now, valid, VcdValue::Bits(u64::from(v.has_token(c))));
            self.writer.change(now, ready, VcdValue::Bits(u64::from(v.has_space(c))));
            let t = v.front_tag(c);
            self.writer.change(now, tag, t.map_or(VcdValue::X, |t| VcdValue::Bits(u64::from(t))));
        }
    }

    /// Renders the recorded waveform as a VCD document.
    pub(crate) fn finish(self) -> String {
        self.writer.render()
    }
}
