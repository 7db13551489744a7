type 'v slot = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  table : ('k, 'v slot) Hashtbl.t;
  max_entries : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; invalidations : int; evictions : int }

let empty_stats = { hits = 0; misses = 0; invalidations = 0; evictions = 0 }

let add_stats (a : stats) (b : stats) =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    invalidations = a.invalidations + b.invalidations;
    evictions = a.evictions + b.evictions;
  }

let create ~max_entries =
  if max_entries < 1 then invalid_arg "Lru.create: max_entries must be at least 1";
  {
    table = Hashtbl.create 64;
    max_entries;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
  }

let stamp t slot =
  t.tick <- t.tick + 1;
  slot.stamp <- t.tick

type 'v lookup = Hit of 'v | Stale of 'v | Absent

let find t k ~valid =
  match Hashtbl.find t.table k with
  | exception Not_found ->
    t.misses <- t.misses + 1;
    Absent
  | slot when valid slot.value ->
    t.hits <- t.hits + 1;
    stamp t slot;
    Hit slot.value
  | slot ->
    Hashtbl.remove t.table k;
    t.invalidations <- t.invalidations + 1;
    t.misses <- t.misses + 1;
    Stale slot.value

let mem t k = Hashtbl.mem t.table k

(* A linear scan: evictions are rare next to hits.  Stamps are unique,
   so the minimum is too. *)
let pop_lru t =
  let victim = ref None and oldest = ref max_int in
  Hashtbl.iter
    (fun k slot ->
      if slot.stamp < !oldest then begin
        oldest := slot.stamp;
        victim := Some k
      end)
    t.table;
  match !victim with
  | None -> None
  | Some k ->
    let slot = Hashtbl.find t.table k in
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1;
    Some slot.value

let insert t k v =
  if Hashtbl.length t.table >= t.max_entries && not (Hashtbl.mem t.table k) then
    ignore (pop_lru t : _ option);
  let slot = { value = v; stamp = 0 } in
  stamp t slot;
  Hashtbl.replace t.table k slot

let remove t k =
  match Hashtbl.find t.table k with
  | exception Not_found -> None
  | slot ->
    Hashtbl.remove t.table k;
    Some slot.value

let length t = Hashtbl.length t.table

let stats (t : (_, _) t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    evictions = t.evictions;
  }
