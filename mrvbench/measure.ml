(* Clock, order statistics and full-precision JSON shared by the benchmark,
   its comparator and its smoke checker. *)

module Json = Harness.Json

(* [exact] marks a deterministic value: two runs of the same inputs must
   agree on it exactly. *)
type metric = { name : string; value : float; unit : string; exact : bool }

let metric ?(exact = false) name unit value = { name; value; unit; exact }

(* Monotonic nanoseconds (the clock Bechamel measures with). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, [p] in [0, 1]. *)
let quantile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so spreads reported
   here are the ones an external check derives from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let at i =
      let m = float_of_int (n + 1) *. float_of_int i /. 4.0 in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (at 1, at 3)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Every digit of a measured value: [Harness.Json.to_string] rounds
   numbers to six significant digits. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> Option.value (exact 16) ~default:(Printf.sprintf "%.17g" f)

let rec to_json = function
  | Json.Jnum f -> number f
  | Json.Jarr l -> "[" ^ String.concat ", " (List.map to_json l) ^ "]"
  | Json.Jobj members ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Json.quote k ^ ": " ^ to_json v) members)
    ^ "}"
  | (Json.Jnull | Json.Jbool _ | Json.Jstr _) as v -> Json.to_string v

let read_file path = In_channel.with_open_bin path In_channel.input_all
