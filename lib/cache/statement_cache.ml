module Sig = Qt_sql.Analysis.Sig
module Lru = Qt_util.Lru

type entry = {
  plan : Qt_optimizer.Plan.t;
  plan_cost : float;
  contracts : (int * float) list;
  sources : (int * int) list;
}

type t = {
  entries : (int, entry) Lru.t;  (* keyed by Sig.id; never observable *)
  require_repeat : bool;
  (* Ghost list for the admission filter: signatures seen exactly once.
     Bounded by the cache's own capacity (the 2Q A1out / ARC ghost-list
     shape), so "second occurrence" means "second occurrence within one
     LRU horizon"; the oldest first sighting goes first. *)
  seen : (int, unit) Lru.t;
  mutable suppressed : int;
}

let create ?(require_repeat = false) ~max_entries () =
  {
    entries = Lru.create ~max_entries;
    require_repeat;
    seen = Lru.create ~max_entries;
    suppressed = 0;
  }

let insert t sg ~plan ~plan_cost ~contracts ~sources =
  let id = Sig.id sg in
  if t.require_repeat && (not (Lru.mem t.entries id)) && not (Lru.mem t.seen id)
  then begin
    (* First sighting inside the horizon: remember it, don't cache it.
       One-off statements never displace a proven-repeat entry. *)
    Lru.insert t.seen id ();
    t.suppressed <- t.suppressed + 1
  end
  else begin
    ignore (Lru.remove t.seen id : unit option);
    Lru.insert t.entries id { plan; plan_cost; contracts; sources }
  end

(* A plan stays valid as long as every node it buys from still has the
   catalog it was priced against; bumping an uninvolved node's
   fingerprint leaves the entry untouched. *)
let entry_valid ~fingerprint e =
  List.for_all (fun (node, fp) -> fingerprint node = fp) e.sources

let find t ~fingerprint sg =
  match Lru.find t.entries (Sig.id sg) ~valid:(entry_valid ~fingerprint) with
  | Lru.Hit e -> Some e
  | Lru.Stale _ | Lru.Absent -> None

type stats = Lru.stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
}

let stats t = Lru.stats t.entries
let suppressed t = t.suppressed
let length t = Lru.length t.entries
