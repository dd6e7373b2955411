(* A bounded cache of a program's shape-only artefacts, owned by whoever
   creates it (a serve scheduler) and passed explicitly to the
   preparations and solves that may reuse them.  Entries of different
   types share one table through typed kinds; a kind's key names every
   value its builder reads, so a hit is what a fresh build would return.
   Least recently used goes first once [capacity] entries are held. *)

type 'a kind = 'a Type.Id.t

let kind () = Type.Id.make ()

type entry =
  | Entry : {
      kind : 'a kind;
      value : 'a;
      serial : int;  (* never reused: an identity for keys built on it *)
      mutable used : int;  (* the cache's clock at the last hit *)
    } -> entry

type t = {
  entries : (int * string, entry) Hashtbl.t;  (* (kind uid, key) *)
  mutable clock : int;
}

let capacity = 64

let m_hits = Prt.Metrics.counter "stage.hits"
let m_misses = Prt.Metrics.counter "stage.misses"
let m_evictions = Prt.Metrics.counter "stage.evictions"

let create () = { entries = Hashtbl.create capacity; clock = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_oldest t =
  let oldest =
    Hashtbl.fold
      (fun k (Entry e) acc ->
        match acc with
        | Some (_, used) when used <= e.used -> acc
        | _ -> Some (k, e.used))
      t.entries None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.entries k;
      Prt.Metrics.incr m_evictions)
    oldest

let cast : type a. a kind -> entry -> a option =
 fun kind (Entry e) ->
  match Type.Id.provably_equal kind e.kind with
  | Some Type.Equal -> Some e.value
  | None -> None

let find cache kind key build =
  match cache with
  | None -> build ()
  | Some t -> (
    match key t with
    | None -> build ()
    | Some key -> (
      let k = Type.Id.uid kind, key in
      match Hashtbl.find_opt t.entries k with
      | Some (Entry e as entry) ->
        e.used <- tick t;
        Prt.Metrics.incr m_hits;
        Option.get (cast kind entry)
      | None ->
        Prt.Metrics.incr m_misses;
        let value = build () in
        if Hashtbl.length t.entries >= capacity then evict_oldest t;
        let serial = tick t in
        Hashtbl.replace t.entries k (Entry { kind; value; serial; used = serial });
        value))

let serial t kind value =
  Hashtbl.fold
    (fun _ (Entry e as entry) acc ->
      match acc, cast kind entry with
      | None, Some v when v == value -> Some e.serial
      | _ -> acc)
    t.entries None

let mesh : Fvm.Mesh.t kind = kind ()
