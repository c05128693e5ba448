(* The observable result of one execution: the union of the values returned
   by all reads (captured in the per-thread register files) and the final
   state of memory — exactly the notion of "result" the paper adopts when
   instantiating Lamport's definition of sequential consistency. *)

module Smap = Exp.Smap

type t = { memory : int Smap.t; regs : int Smap.t array }

let make ~memory ~regs = { memory; regs }

let num_threads t = Array.length t.regs

let mem t loc =
  match Smap.find_opt loc t.memory with Some v -> v | None -> 0

let reg t proc r =
  if proc < 0 || proc >= Array.length t.regs then None
  else Smap.find_opt r t.regs.(proc)

let bindings_of_map m = Smap.bindings m

(* The order of the binding lists (memory, then the register files), as
   polymorphic compare would give it, computed by walking the maps: the
   exploration engines compare outcomes on every final state they add, and
   building the lists allocated more than the machine steps. *)
let compare a b =
  let c = Smap.compare Int.compare a.memory b.memory in
  if c <> 0 then c
  else
    let n = Array.length a.regs and m = Array.length b.regs in
    if n <> m then Int.compare n m
    else
      let rec go i =
        if i = n then 0
        else
          let c = Smap.compare Int.compare a.regs.(i) b.regs.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = compare a b = 0

let pp ppf t =
  let pp_binding ppf (k, v) = Fmt.pf ppf "%s=%d" k v in
  let pp_map ppf m =
    Fmt.(list ~sep:(any " ") pp_binding) ppf (bindings_of_map m)
  in
  Fmt.pf ppf "@[<h>[mem: %a]" pp_map t.memory;
  Array.iteri
    (fun i regs ->
      if not (Smap.is_empty regs) then Fmt.pf ppf " [P%d: %a]" i pp_map regs)
    t.regs;
  Fmt.pf ppf "@]"

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let pp_set ppf s =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) (Set.elements s)
