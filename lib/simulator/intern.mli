(** Domain-local hash-consing of AS-path arrays.

    Callers that meet the same paths over and over intern them so that
    identical paths within a domain share one canonical array: repeated
    prepends of the same path allocate nothing, and path comparisons
    can try physical equality before structural equality.  Tables live
    in [Domain.DLS] — no locks, no sharing between {!Pool} workers — so
    canonical identity is per-domain and callers must always keep a
    structural fallback.  The engine interns only originated routes
    ({!rattr}): once a table outgrows the caches a probe costs more
    than allocating the path. *)

val path : int array -> int array
(** [path p] is the canonical array equal to [p] in the current domain
    (possibly [p] itself).  The empty path is a global constant. *)

val prepend : own_as:int -> int array -> int array
(** [prepend ~own_as p] is the canonical array for [own_as] consed onto
    [p] — the eBGP export prepend — memoized per [(own_as, p)], so
    re-exporting an unchanged best route allocates nothing. *)

val fold_path_hash : int array -> int
(** The full-width polynomial hash over every element of a path,
    computed afresh: [fold_path_hash p = path_hash p] for every [p].
    Cheaper than {!path_hash} where each path is hashed once. *)

val path_hash : int array -> int
(** Full-width polynomial hash over {e every} element (unlike
    [Hashtbl.hash], which truncates), cached per canonical array.
    Suitable for the engine's oscillation-watchdog fingerprint. *)

val rattr : Rattr.t -> Rattr.t
(** [rattr r] is the canonical record equal to [r] (every field
    compared) in the current domain — the PR-3 path arena extended to
    whole route attributes.  Use it where the same record genuinely
    recurs (the engine interns each run's originated routes, shared
    across the runs of a domain); per-import candidates are better left
    plain — they rarely repeat, and the table probe was measured at
    20-35 % of engine throughput.  Never pass {!Rattr.no_route}. *)

type stats = { paths : int; prepends : int; hashes : int; rattrs : int }
(** Fill of the {e current domain's} tables. *)

val stats : unit -> stats

val table_cap : int
(** Per-table entry cap; a table is reset (not grown) past it, so
    [Analysis.Audit] asserts every fill stays [<= table_cap]. *)
