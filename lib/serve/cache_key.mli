(** Content-addressed cache keys for bound-query results.

    A governed bound is a pure function of its {!Dmc_core.Engine_job}:
    the CDAG, the engine name, the fast-memory size and the resource
    budget determine the row completely.  The daemon therefore keys its
    result cache by a digest of exactly those inputs — two queries that
    describe the same computation hit the same entry no matter how they
    arrived (generator spec vs. inline graph text, different whitespace
    in the serialization, different clients). *)

val version : string
(** Version tag mixed into every key.  Bump it when the row payload or
    the key material changes shape: old persisted entries then miss
    instead of replaying a stale format. *)

val of_spec :
  engine:string ->
  s:int ->
  timeout:float option ->
  node_budget:int option ->
  samples:int ->
  string ->
  string
(** Key for a workload-spec query, digesting the (trimmed) spec string
    itself plus the engine parameters — the graph is never built, so a
    repeat query for a named workload is answered from cache without
    paying materialization.  Spec keys live in their own version space
    (a separate version tag): they can never collide with {!of_job} keys, and
    a spec and its materialized graph are deliberately cached as two
    entries — the price of never building the graph on the hot path. *)

val of_job : Dmc_core.Engine_job.t -> string
(** The hex digest naming [job]'s result.  The graph text is
    canonicalized first (parsed and re-serialized) so formatting
    differences cannot split cache entries; a graph that fails to parse
    is digested verbatim — the job will fail with [Invalid_input]
    anyway, and broken inputs deserve cache slots no more stable than
    their bytes. *)
