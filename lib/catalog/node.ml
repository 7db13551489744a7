type capabilities = {
  max_join_relations : int;
  can_aggregate : bool;
  can_sort : bool;
}

let full_capabilities =
  { max_join_relations = 16; can_aggregate = true; can_sort = true }

let scan_only = { max_join_relations = 1; can_aggregate = false; can_sort = false }

type t = {
  node_id : int;
  name : string;
  fragments : Fragment.t list;
  views : View.t list;
  cpu_factor : float;
  io_factor : float;
  capabilities : capabilities;
}

let make ?(views = []) ?(cpu_factor = 1.0) ?(io_factor = 1.0)
    ?(capabilities = full_capabilities) ~id ~name ~fragments () =
  if cpu_factor <= 0. || io_factor <= 0. then
    invalid_arg "Node.make: speed factors must be positive";
  if capabilities.max_join_relations < 1 then
    invalid_arg "Node.make: max_join_relations must be at least 1";
  { node_id = id; name; fragments; views; cpu_factor; io_factor; capabilities }

let fragments_of t rel = List.filter (fun (f : Fragment.t) -> f.rel = rel) t.fragments

let holds_relation t rel = fragments_of t rel <> []

let coverage t rel = List.map (fun (f : Fragment.t) -> f.range) (fragments_of t rel)

(* One [Hashtbl.hash] per fragment and per view, mixed in list order: a
   single hash over the whole catalog would stop after a bounded number
   of values and miss a change to a late fragment of a large node.  A
   view's definition is a tree, hashed with limits no real definition
   reaches. *)
let fingerprint t =
  let mix acc h = ((acc * 31) + h) land max_int in
  let acc = Hashtbl.hash (t.capabilities, t.cpu_factor, t.io_factor) in
  let acc =
    List.fold_left (fun acc (f : Fragment.t) -> mix acc (Hashtbl.hash f)) acc
      t.fragments
  in
  List.fold_left
    (fun acc (v : View.t) -> mix acc (Hashtbl.hash_param 1000 1000 v))
    acc t.views

let pp ppf t =
  Format.fprintf ppf "node %d (%s): %a%s" t.node_id t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Fragment.pp)
    t.fragments
    (if t.views = [] then ""
     else Printf.sprintf " +%d views" (List.length t.views))
