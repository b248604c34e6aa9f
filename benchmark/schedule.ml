(* The serving workloads' request script: when each request is due and
   which key and tenant it carries — a pure function of the seed.

   A run sends the steps (low, high, over) in order, each as one
   contiguous block of requests at the step's rate; the daemon drains
   between steps.

   Arrivals are Poisson in shape: gaps are exponential at the step's
   rate. They are drawn stratified (one uniform per equal-probability
   slice of the exponential, shuffled), so every seed offers the same
   gap distribution and very nearly the same step length
   (count / rate), and seeds differ in the order of the gaps only.
   That keeps run-to-run spread down without making the load regular. *)

module Rng = Fbb_util.Rng

type segment = {
  name : string;  (** the step: [low], [high] or [over] *)
  rate_rps : float;
  offsets_s : float array;  (** due time of each request from step start *)
  first : int;  (** global index of the step's first request *)
}

let arrivals rng ~rate_rps n =
  let gaps =
    Array.init n (fun i ->
        let u = (float_of_int i +. Rng.uniform rng) /. float_of_int n in
        -.Float.log1p (-.u) /. rate_rps)
  in
  Rng.shuffle rng gaps;
  let offsets = Array.make n 0.0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) +. gaps.(i - 1)
  done;
  offsets

type t = {
  segments : segment list;  (** in run order *)
  key_of : int array;  (** key index of each request, by global index *)
}

(* [steps] are [(name, rate_rps, requests)]. Keys are visited
   round-robin over one seeded shuffle, so every key comes back exactly
   [keys] requests later. *)
let make ~seed ~keys steps =
  let rng = Rng.create ~seed in
  let perm = Array.init keys Fun.id in
  Rng.shuffle rng perm;
  let first = ref 0 in
  let segments =
    List.map
      (fun (name, rate_rps, n) ->
        let s =
          { name; rate_rps; offsets_s = arrivals (Rng.split rng) ~rate_rps n;
            first = !first }
        in
        first := !first + n;
        s)
      steps
  in
  { segments; key_of = Array.init !first (fun g -> perm.(g mod keys)) }

let tenant_of g ~tenants = Printf.sprintf "t%d" (g mod tenants)
