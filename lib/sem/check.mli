(** Post-elaboration static checks (report sections 4.1, 4.5, 4.7, 8):

    - single-assignment discipline per alias class: at most one
      unconditional driver, never both conditional and unconditional
      assignments, no unconditional [:=] to an aliased boolean;
    - no combinational feedback — every cycle must pass through a REG;
    - the unused-port rule: once any port of an instance is used by its
      surrounding component, every other port must be used, assigned or
      closed with ['*'];
    - SEQUENTIAL ordering must be compatible with the dataflow partial
      order;
    - undriven-but-read nets are warned about (they read UNDEF).

    All of them read one {!Graph.t}; the cycle and ORDER checks use its
    {!Sched} levels. *)

(** Run all checks, recording diagnostics in [design.diags].  Returns
    [true] when no errors (warnings allowed).  Builds one {!Graph.t}. *)
val run : Elaborate.design -> bool
