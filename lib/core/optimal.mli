module Budget := Dmc_util.Budget
module Cdag := Dmc_cdag.Cdag

(** Provably optimal pebble games on small CDAGs by explicit
    shortest-path search over game states.

    These engines establish the ground truth the validation experiments
    compare the lower-bound machinery against: for every tiny CDAG,
    [lower bound <= rbw_io <= any strategy's I/O] must hold, and
    [rb_io <= rbw_io] (forbidding recomputation can only increase
    I/O).

    Both games run through one search.  Loads and stores cost 1,
    computes and deletes 0.  Deletions are normalized to happen only
    when a placement finds the fast memory full — a standard no-loss
    transformation, since capacity only binds at placements — which
    keeps the state space finite and small.  A state packs the
    white/red/blue vertex sets into one [int], so {!rbw_io} accepts up
    to 20 vertices and {!rb_io} up to 31.

    The search is A*, run as a 0-1 BFS over a deque of states, with a
    flat open-addressing table of best costs.  Its heuristic is the
    I/O floor of what remains: in the RBW game every input not yet
    white still needs its own load (inputs are never computed) and
    every non-input output not yet blue its own store; in the
    Hong–Kung game every output not yet blue still needs its own
    store.  These are distinct cost-1 moves, so the count never
    exceeds the remaining cost (admissible), and one move lowers it
    by at most the move's own cost (consistent).  Consistency keeps
    every reduced cost [c + h(v) - h(u)] at 0 or 1, which is what
    lets a deque replace a priority queue.  At the start state the
    RBW heuristic equals [Bounds.io_floor].  [max_states] caps the
    number of distinct states stored. *)

exception Too_large of string
(** Raised when the graph exceeds the encodable size, when the search
    would store more than [max_states] distinct states, or when no
    complete game exists.

    All engines additionally accept a [budget] guard
    ({!Dmc_util.Budget.t}) ticked from their inner loops; deadline or
    node-budget exhaustion raises [Budget.Exhausted].  The
    result-typed wrappers in [Dmc_core.Bounds.Engine] convert both
    exception families into [Error] values. *)

val rbw_io : ?budget:Budget.t -> ?max_states:int -> Cdag.t -> s:int -> int
(** Minimum I/O of any complete red-blue-white game (Definition 4).
    [max_states] defaults to 2,000,000. *)

val rb_io : ?budget:Budget.t -> ?max_states:int -> Cdag.t -> s:int -> int
(** Minimum I/O of any complete Hong–Kung red-blue game (Definition 2),
    recomputation allowed.  The graph must satisfy the Hong–Kung
    convention ({!Dmc_cdag.Validate.is_hong_kung}); raises
    [Invalid_argument] otherwise. *)

val min_balanced_horizontal :
  ?budget:Budget.t -> ?slack:int -> Cdag.t -> procs:int -> int * int array
(** The minimum number of inter-node word transfers of any P-RBW game
    on [procs] nodes with private unbounded memories, sufficient
    registers and a {e balanced} work assignment (no processor fires
    more than [ceil(compute / procs) + slack] vertices; [slack]
    defaults to 0).

    With free vertical moves, the game collapses to choosing which
    processor fires each compute vertex: a value computed at [p] must
    reach every other node that consumes it at least once, while
    tagged inputs can be [Input]-ed into any memory directly from blue
    and cost nothing horizontally.  Convention: a computed value that a
    game round-trips through the blue storage ([Output] at [p],
    [Input] at [q]) still counts as one transfer into [q] — Definition
    6's blue level models the job's outside storage, not a second
    communication fabric, and any such route moves at least as many
    words.  The returned assignment array maps each vertex to its
    processor (inputs are placed greedily at a consumer).  Exhaustive
    over the [procs^compute] balanced assignments — at most 14 compute
    vertices.  Raises {!Too_large} beyond that, [Invalid_argument] for
    [procs < 1].

    Under that convention this is the exact optimum Theorem 7's
    horizontal bound must sit below; the tests check measured SPMD
    executions against it. *)
