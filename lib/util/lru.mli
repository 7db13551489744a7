(** A keyed table bounded by entry count, evicting the least recently
    used entry — the one core under the seller bid cache, the statement
    cache (and its ghost list) and the result cache.

    Every insert and every hit stamps the entry with the table's next
    tick.  Ticks are unique and increasing, so the victim is always a
    single entry and eviction order is a function of the call sequence
    alone: same-seed runs evict identically.  Instances share no state,
    so tables owned by different domains never race. *)

type ('k, 'v) t

type stats = { hits : int; misses : int; invalidations : int; evictions : int }

val empty_stats : stats
val add_stats : stats -> stats -> stats

val create : max_entries:int -> ('k, 'v) t
(** @raise Invalid_argument if [max_entries < 1]. *)

type 'v lookup = Hit of 'v | Stale of 'v | Absent

val find : ('k, 'v) t -> 'k -> valid:('v -> bool) -> 'v lookup
(** [Hit] stamps the entry and counts a hit.  An entry failing [valid]
    is removed and returned as [Stale] (an invalidation plus a miss);
    [Absent] counts a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Neither stamps nor counts. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind and stamp [k].  A new key in a full table first evicts the
    least recently used entry; replacing a key never evicts. *)

val pop_lru : ('k, 'v) t -> 'v option
(** Remove the least recently used entry (counted as an eviction). *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Drop [k] without counting; the removed value, if any. *)

val length : ('k, 'v) t -> int
val stats : ('k, 'v) t -> stats
