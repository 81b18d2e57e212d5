(** Canonical forms and fingerprints for scheduled programs.

    PerfDojo's transformation graph reaches semantically identical
    schedules through many different move sequences: temporaries pick up
    history-dependent names ([split_reduction]'s [x__part] buffers),
    independent siblings end up in whichever order the moves happened to
    leave them, and commutative operands get swapped by rewrites.  The
    stochastic engines and the tuning database would otherwise pay a
    simulator evaluation for each spelling of the same state — the
    redundancy TransForm's canonicalizer collapses (222 generated
    instances, 8 unique).

    [canonicalize] maps a program to a normal form that is invariant
    under those incidental differences while preserving semantics:

    - commutative binary operands ([+], [*], [max], [min]) are sorted by
      a name-erased printed key;
    - adjacent siblings that are {e provably} independent (exactly the
      [reorder] move's safety condition, {!Transform.Dep}) are bubble-
      sorted into a canonical order — every swap performed is a legal
      [reorder], so the result is reachable from the input and
      semantically equal to it;
    - non-interface buffers and arrays are alpha-renamed to [_c0], [_c1],
      … ordered by a structural occurrence signature (name-erased
      contexts), with first use in the canonical body as tie-break;
      interface (input/output) arrays are never renamed — they are part
      of the program's meaning;
    - buffer declarations are sorted by canonical name.

    Cost: each of the two sorting passes prints every node once.  A
    node's text (its sort key) is built from its operands' or children's
    texts with {!Ir.Printer}'s bottom-up pieces, and {!fingerprint}
    digests the text the last pass built, so it never prints the
    program again.  {!Ir.Printer} is the only place a formatting rule
    lives, so the canonical text is exactly what [Ir.Printer.program]
    prints for {!canonicalize}'s result.

    The construction is {e sound} for deduplication: it never merges two
    programs that differ in anything but the incidental choices above.
    It is deliberately not a decision procedure for semantic equivalence
    — adversarially symmetric programs can still print differently — so
    a visited set keyed on [fingerprint] may occasionally evaluate an
    equivalent state twice, but never skips a genuinely new one. *)

val version : int
(** Bumped whenever the canonical form changes; folded into
    {!fingerprint} so persisted fingerprints from different canon
    versions never collide silently. *)

val canonicalize : Ir.Prog.t -> Ir.Prog.t
(** Canonical representative of the program's equivalence class.
    Semantics-preserving and idempotent. *)

val fingerprint : Ir.Prog.t -> string
(** Hex digest of the canonical printed form (prefixed with
    {!version}).  Equal for alpha-renamed and commutatively-reordered
    spellings of the same schedule; programs with different canonical
    forms get different fingerprints (modulo digest collision). *)

val equal : Ir.Prog.t -> Ir.Prog.t -> bool
(** [fingerprint a = fingerprint b]. *)
