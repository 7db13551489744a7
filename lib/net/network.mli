(** Simulated federation network.

    The experiments measure three things about optimization itself: how
    long it takes (simulated elapsed time), how many messages it needs and
    how many bytes it moves.  This module is the single accounting point
    for all three.  The model is a full mesh with uniform latency and
    bandwidth (from {!Qt_cost.Params}); a request round to many sellers
    proceeds in parallel, so a round's elapsed time is the {e slowest}
    seller's round trip, while message/byte counters accumulate over {e
    all} sellers — exactly the asymmetry that lets query trading scale with
    federation size. *)

type t

val create : Qt_cost.Params.t -> t

val clock : t -> float
(** Simulated seconds elapsed since creation. *)

val messages : t -> int
val bytes_sent : t -> int

val reset_counters : t -> unit
(** Zero the message/byte counters and the clock (used between experiment
    repetitions sharing one network). *)

val one_way : t -> bytes:int -> float
(** Transit time of a single message carrying [bytes] of payload
    (envelope overhead added internally). *)

val send : t -> bytes:int -> float
(** Account one message and advance the clock by its transit time
    (a sequential point-to-point exchange).  Returns the transit time. *)

val broadcast : t -> count:int -> bytes:int -> float
(** Account [count] copies of a [bytes]-byte message (the fan-out leg of a
    request round) in O(1), and return the one-way transit time of one
    copy.  The clock is {e not} advanced: the caller owns round timing —
    the legacy path folds the transit into {!parallel_round}'s maximum,
    while the discrete-event runtime schedules one delivery event per
    copy. *)

val gather : t -> (int * float) list -> float
(** Account one reply per participant [(reply_bytes, remote processing
    seconds)] (the fan-in leg) and return the slowest [processing +
    transit].  Like {!broadcast}, counters only — no clock movement. *)

val parallel_round : t -> (int * int * float) list -> float
(** [parallel_round t participants] performs one parallel request/reply
    round.  Each participant is [(request_bytes, reply_bytes,
    remote_processing_seconds)]; two messages per participant are
    accounted, and the clock advances by the maximum of the individual
    round-trip times.  Returns that elapsed time (0 for no
    participants). *)

val local_work : t -> float -> unit
(** Advance the clock by local (buyer-side) processing time. *)

val account_messages : t -> count:int -> bytes_each:int -> elapsed:float -> unit
(** Bulk accounting for negotiation chatter whose messages overlap in
    time: add [count] messages of [bytes_each] payload and advance the
    clock by [elapsed] (e.g. the deepest lot's rounds, not the sum). *)
