(** A bounded cache of a program's shape-only artefacts: what a
    preparation or a solve builds from a request's shape alone (the
    mesh, the transformed equation, the interior face tables, a
    scenario's physics tables), shared by the later requests of that
    shape.

    A cache is a value its owner creates and passes explicitly ([?cache]
    of {!Finch.prepare}, {!Finch.solve}, [Finch_tune.Tune.resolve]); a
    serve scheduler owns one ([Finch_serve.Scheduler.create
    ~use_cache:true]).  Without one every build is fresh.  It holds at
    most {!capacity} entries of every kind together, and evicts the
    least recently used.  It is not synchronized: use it from one
    domain, and build through it before any rank starts.

    Every entry is keyed by every value its builder reads, so a hit
    returns what a fresh build would, bit for bit.  Entries are shared:
    nobody may write a value taken from a cache.

    Counters: [stage.hits], [stage.misses] and [stage.evictions]. *)

type 'a kind
(** The entries of one builder, holding values of type ['a]. *)

val kind : unit -> 'a kind
(** A fresh kind, distinct from every other: its entries never meet
    another kind's, whatever their keys. *)

type t
(** A cache. *)

val capacity : int
(** Most entries a cache holds: 64, like [Finch.program_digest_cap]. *)

val create : unit -> t
(** An empty cache. *)

val find : t option -> 'a kind -> (t -> string option) -> (unit -> 'a) -> 'a
(** [find cache kind key build]: the value of [kind] held under [key
    c], or [build ()] held there from now on (a miss).  [build ()] alone,
    holding nothing and counting nothing, with no cache (the key is not
    built) or when [key c] is [None]: the value cannot be keyed.  A hit
    makes the entry the most recently used; a miss at {!capacity}
    evicts the least recently used first.  [key] receives the cache, so
    a key may name another entry by its {!serial}. *)

val serial : t -> 'a kind -> 'a -> int option
(** The serial of the entry of [kind] whose value is physically the
    given one, or [None] when none is held.  A serial names one entry
    for the cache's lifetime and is never reused, so a key built on it
    cannot meet a value built after that entry was evicted. *)

val mesh : Fvm.Mesh.t kind
(** Generated meshes, keyed by the generator's arguments.  The face
    tables key on the mesh's {!serial}: a problem whose mesh is not an
    entry stages its own. *)
