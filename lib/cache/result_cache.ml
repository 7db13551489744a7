module Sig = Qt_sql.Analysis.Sig
module Table = Qt_exec.Table
module Lru = Qt_util.Lru

type entry = {
  table : Table.t;
  plan : Qt_optimizer.Plan.t;
  plan_cost : float;
  suppliers : (int * float) list;
  bytes : int;
  epoch : int;
}

type t = {
  entries : (int, entry) Lru.t;  (* keyed by Sig.id; never observable *)
  max_entries : int;
  max_bytes : int;
  mutable held_bytes : int;
}

(* Deterministic size estimate: 8 bytes per cell plus a fixed per-entry
   overhead.  Only relative sizes matter — the byte budget is a knob, not
   an allocator. *)
let approx_bytes (table : Table.t) =
  (Array.length table.cols * 8 * Table.cardinality table) + 64

let create ~max_entries ~max_bytes () =
  if max_bytes < 1 then
    invalid_arg "Result_cache.create: max_bytes must be at least 1";
  { entries = Lru.create ~max_entries; max_entries; max_bytes; held_bytes = 0 }

let release t = function
  | Some (e : entry) -> t.held_bytes <- t.held_bytes - e.bytes
  | None -> ()

let insert t sg ~table ~plan ~plan_cost ~suppliers ~epoch =
  let bytes = approx_bytes table in
  if bytes <= t.max_bytes then begin
    release t (Lru.remove t.entries (Sig.id sg));
    while
      Lru.length t.entries > 0
      && (Lru.length t.entries >= t.max_entries
         || t.held_bytes + bytes > t.max_bytes)
    do
      release t (Lru.pop_lru t.entries)
    done;
    Lru.insert t.entries (Sig.id sg)
      { table; plan; plan_cost; suppliers; bytes; epoch };
    t.held_bytes <- t.held_bytes + bytes
  end

(* Any federation catalog change retires the answer: results reflect
   data placement at execution time, so the coarse epoch is the only
   safe validity token. *)
let find t ~epoch sg =
  match Lru.find t.entries (Sig.id sg) ~valid:(fun e -> e.epoch = epoch) with
  | Lru.Hit e -> Some e
  | Lru.Stale e ->
    t.held_bytes <- t.held_bytes - e.bytes;
    None
  | Lru.Absent -> None

type stats = Lru.stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
}

let stats t = Lru.stats t.entries
let length t = Lru.length t.entries
let bytes_held t = t.held_bytes
