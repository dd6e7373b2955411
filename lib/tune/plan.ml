(* Execution plans: the plain-data records the tuner enumerates, scores
   and memoizes.  See plan.mli. *)

type t = {
  target : Finch.Config.target;
  opt_level : Finch.Config.opt_level;
  eval_mode : Finch.Config.eval_mode;
  overlap : bool;
}

let make ?(opt_level = Finch.Config.O2) ?(eval_mode = Finch.Config.Closure)
    ?(overlap = false) target =
  if target = Finch.Config.Auto then
    invalid_arg "Plan.make: a plan's target must be concrete, not auto";
  { target; opt_level; eval_mode; overlap }

let name p =
  Printf.sprintf "%s opt=%s eval=%s %s"
    (Finch.Config.target_name p.target)
    (Finch.Config.opt_level_name p.opt_level)
    (Finch.Config.eval_mode_name p.eval_mode)
    (if p.overlap then "overlap" else "sync")

let equal a b =
  Finch.Config.target_name a.target = Finch.Config.target_name b.target
  && a.opt_level = b.opt_level && a.eval_mode = b.eval_mode
  && a.overlap = b.overlap

let of_request (req : Finch.Solve_request.t) =
  if req.Finch.Solve_request.backend = Finch.Config.Auto then
    invalid_arg "Plan.of_request: backend auto encodes no concrete plan";
  {
    target = req.Finch.Solve_request.backend;
    opt_level = req.Finch.Solve_request.opt_level;
    eval_mode = req.Finch.Solve_request.eval_mode;
    overlap = req.Finch.Solve_request.overlap;
  }

let apply p (req : Finch.Solve_request.t) =
  {
    req with
    Finch.Solve_request.backend = p.target;
    opt_level = p.opt_level;
    eval_mode = p.eval_mode;
    overlap = p.overlap;
  }

let to_json p =
  Finch.Json.Obj
    [
      "backend", Finch.Json.Str (Finch.Config.target_name p.target);
      "opt", Finch.Json.Str (Finch.Config.opt_level_name p.opt_level);
      "eval", Finch.Json.Str (Finch.Config.eval_mode_name p.eval_mode);
      "overlap", Finch.Json.Bool p.overlap;
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field k extract =
    match Finch.Json.member k j with
    | Some v -> extract v
    | None -> Error (Printf.sprintf "plan: missing member %S" k)
  in
  let* backend = field "backend" Finch.Json.to_str in
  let* target = Finch.Config.target_of_string backend in
  let* () =
    if target = Finch.Config.Auto then Error "plan: backend auto is not a plan"
    else Ok ()
  in
  let* opt = field "opt" Finch.Json.to_str in
  let* opt_level = Finch.Config.opt_level_of_string opt in
  let* ev = field "eval" Finch.Json.to_str in
  let* eval_mode = Finch.Config.eval_mode_of_string ev in
  let* overlap = field "overlap" Finch.Json.to_bool in
  Ok { target; opt_level; eval_mode; overlap }
