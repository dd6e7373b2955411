(* A solve request: plain data describing one solve, hashable and
   serializable.  The facade (Finch.solve) and the serve scheduler both
   consume these. *)

type t = {
  scenario : string;
  nx : int;
  ny : int;
  ndirs : int;
  nbands : int;
  nsteps : int;
  t_hot : float option;
  t_cold : float option;
  backend : Config.target;
  opt_level : Config.opt_level;
  eval_mode : Config.eval_mode;
  overlap : bool;
  deadline_s : float option;
  label : string option;
}

let make ?(nx = 24) ?(ny = 24) ?(ndirs = 8) ?(nbands = 8) ?(nsteps = 20)
    ?t_hot ?t_cold ?(backend = Config.Cpu Config.Serial)
    ?(opt_level = Config.O2) ?(eval_mode = Config.Closure)
    ?(overlap = false) ?deadline_s ?label scenario =
  { scenario; nx; ny; ndirs; nbands; nsteps; t_hot; t_cold; backend;
    opt_level; eval_mode; overlap; deadline_s; label }

let validate r =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (r.scenario <> "") "scenario name is empty" in
  let* () = check (r.nx > 0 && r.ny > 0) "mesh dimensions must be positive" in
  let* () = check (r.ndirs > 0) "ndirs must be positive" in
  let* () = check (r.nbands > 0) "nbands must be positive" in
  let* () = check (r.nsteps > 0) "nsteps must be positive" in
  let pos_opt name = function
    | Some v when v <= 0.0 -> Error (name ^ " must be positive")
    | _ -> Ok ()
  in
  let* () = pos_opt "t_hot" r.t_hot in
  let* () = pos_opt "t_cold" r.t_cold in
  match r.deadline_s with
  | Some d when d < 0.0 -> Error "deadline_s must be non-negative"
  | _ -> Ok ()

let equal a b =
  a.scenario = b.scenario && a.nx = b.nx && a.ny = b.ny
  && a.ndirs = b.ndirs && a.nbands = b.nbands && a.nsteps = b.nsteps
  && a.t_hot = b.t_hot && a.t_cold = b.t_cold
  && Config.target_name a.backend = Config.target_name b.backend
  && a.opt_level = b.opt_level && a.eval_mode = b.eval_mode
  && a.overlap = b.overlap && a.deadline_s = b.deadline_s
  && a.label = b.label

let to_json r =
  let base =
    [ "scenario", Json.Str r.scenario;
      "nx", Json.Num (float_of_int r.nx);
      "ny", Json.Num (float_of_int r.ny);
      "ndirs", Json.Num (float_of_int r.ndirs);
      "nbands", Json.Num (float_of_int r.nbands);
      "nsteps", Json.Num (float_of_int r.nsteps);
      "backend", Json.Str (Config.target_name r.backend);
      "opt", Json.Str (Config.opt_level_name r.opt_level);
      "eval", Json.Str (Config.eval_mode_name r.eval_mode);
      "overlap", Json.Bool r.overlap ]
  in
  let opt name f v l = match v with None -> l | Some x -> (name, f x) :: l in
  let tail =
    opt "t_hot" (fun f -> Json.Num f) r.t_hot
    @@ opt "t_cold" (fun f -> Json.Num f) r.t_cold
    @@ opt "deadline_s" (fun f -> Json.Num f) r.deadline_s
    @@ opt "label" (fun s -> Json.Str s) r.label []
  in
  Json.Obj (base @ tail)

let eval_mode_of_string s =
  match String.lowercase_ascii s with
  | "closure" -> Ok Config.Closure
  | "tape" -> Ok Config.Tape
  | "native" -> Ok Config.Native
  | _ -> Error (Printf.sprintf "bad eval mode %S (closure|tape|native)" s)

let of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj _ ->
    let str_field name = Option.map Json.to_str (Json.member name j) in
    let int_field name default =
      match Json.member name j with
      | None -> Ok default
      | Some v -> Json.to_int v
    in
    let num_opt name =
      match Json.member name j with
      | None -> Ok None
      | Some v -> Result.map Option.some (Json.to_num v)
    in
    let* scenario =
      match str_field "scenario" with
      | None -> Error "missing \"scenario\" member"
      | Some r -> r
    in
    let d = make scenario in
    let* nx = int_field "nx" d.nx in
    let* ny = int_field "ny" d.ny in
    let* ndirs = int_field "ndirs" d.ndirs in
    let* nbands = int_field "nbands" d.nbands in
    let* nsteps = int_field "nsteps" d.nsteps in
    let* t_hot = num_opt "t_hot" in
    let* t_cold = num_opt "t_cold" in
    let* deadline_s = num_opt "deadline_s" in
    let* backend =
      match str_field "backend" with
      | None -> Ok d.backend
      | Some r -> Result.bind r Config.target_of_string
    in
    let* opt_level =
      match str_field "opt" with
      | None -> Ok d.opt_level
      | Some r -> Result.bind r Config.opt_level_of_string
    in
    let* eval_mode =
      match str_field "eval" with
      | None -> Ok d.eval_mode
      | Some r -> Result.bind r eval_mode_of_string
    in
    let* overlap =
      match Json.member "overlap" j with
      | None -> Ok d.overlap
      | Some v -> Json.to_bool v
    in
    let* label =
      match str_field "label" with
      | None -> Ok None
      | Some r -> Result.map Option.some r
    in
    let r =
      { scenario; nx; ny; ndirs; nbands; nsteps; t_hot; t_cold; backend;
        opt_level; eval_mode; overlap; deadline_s; label }
    in
    let* () = validate r in
    Ok r
  | _ -> Error "expected a JSON object"

let of_string s = Result.bind (Json.of_string s) of_json
let to_string r = Json.to_string (to_json r)

let summary r =
  Printf.sprintf "%s %dx%d d%d b%d s%d %s O%s %s%s" r.scenario r.nx r.ny
    r.ndirs r.nbands r.nsteps
    (Config.target_name r.backend)
    (Config.opt_level_name r.opt_level)
    (Config.eval_mode_name r.eval_mode)
    (match r.label with None -> "" | Some l -> " [" ^ l ^ "]")
