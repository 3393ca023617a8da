//! Timer-key constants and payload packing shared by the actors.

use hermes_core::{ComponentId, SessionId};

/// Server: send the next frame of a stream (its first one at the stream's
/// flow-scenario send start).
pub const TK_FRAME: u64 = 2;
/// Server: a suspended connection's grace period check.
pub const TK_GRACE: u64 = 3;
/// Server: ship a discrete media object.
pub const TK_DISCRETE: u64 = 4;
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

/// Pack a (session, component) pair into one timer payload.
pub fn pack(session: SessionId, component: ComponentId) -> u64 {
    debug_assert!(session.raw() < (1 << 32) && component.raw() < (1 << 32));
    (session.raw() << 32) | component.raw()
}

/// Unpack a timer payload into (session, component).
pub fn unpack(payload: u64) -> (SessionId, ComponentId) {
    (
        SessionId::new(payload >> 32),
        ComponentId::new(payload & 0xFFFF_FFFF),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let s = SessionId::new(123_456);
        let c = ComponentId::new(789);
        assert_eq!(unpack(pack(s, c)), (s, c));
        assert_eq!(
            unpack(pack(SessionId::new(0), ComponentId::new(0))),
            (SessionId::new(0), ComponentId::new(0))
        );
    }
}
