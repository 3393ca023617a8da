//! Timer-key constants and payload packing shared by the actors.

use hermes_core::SessionId;

/// Server: send a stream's next frame, or its discrete object whole (the
/// first at its flow-scenario send start); the payload is [`pack`]ed.
pub const TK_FRAME: u64 = 2;
/// Server: a suspended connection's grace deadline.
pub const TK_GRACE: u64 = 3;
/// Server: emit the next per-session liveness heartbeat.
pub const TK_HEARTBEAT: u64 = 5;
/// Server: periodic degradation-ladder evaluation (queue-pressure check).
pub const TK_LADDER: u64 = 6;
/// Server: hedge delay expired for a media fetch (payload = fetch id) —
/// issue the duplicate to the next-best replica if still unanswered.
pub const TK_HEDGE: u64 = 7;
/// Client: periodic feedback report.
pub const TK_FEEDBACK: u64 = 10;
/// Client: playout tick.
pub const TK_TICK: u64 = 11;
/// Client: prefill/priming check before starting the presentation.
pub const TK_PRIME: u64 = 12;
/// Client: retransmit an unacknowledged tracked control request
/// (payload = request id).
pub const TK_RETRY: u64 = 13;
/// Client: liveness check — has the server been heard from recently?
pub const TK_LIVENESS: u64 = 14;
/// Media node: service of the fetch at the head of the queue completes.
pub const TK_MEDIA_SVC: u64 = 15;
/// Controller host: evaluate one fleet control tick.
pub const TK_CONTROL: u64 = 17;
/// Server / media node: ship the next control-plane report registry to the
/// controller host.
pub const TK_CONTROL_REPORT: u64 = 18;
/// Controller host: broadcast the next lease beat (epoch + administrative
/// snapshot) to the server fleet.
pub const TK_CTRL_LEASE: u64 = 19;
/// Server: check the controller lease for expiry and run the failover
/// election if it lapsed (the K-missed-beats watch chain).
pub const TK_CTRL_WATCH: u64 = 20;

/// Pack a stream timer's session (all 32 bits of it) and generation into
/// one timer payload.
pub fn pack(session: SessionId, gen: u32) -> u64 {
    debug_assert!(session.raw() < (1 << 32));
    (session.raw() << 32) | u64::from(gen)
}

/// Unpack a stream timer's payload into (session, generation).
pub fn unpack(payload: u64) -> (SessionId, u32) {
    (SessionId::new(payload >> 32), payload as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for (s, gen) in [(123_456, 789), (0, 0), (u32::MAX as u64, u32::MAX)] {
            let s = SessionId::new(s);
            assert_eq!(unpack(pack(s, gen)), (s, gen));
        }
    }
}
