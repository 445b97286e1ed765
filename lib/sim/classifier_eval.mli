(** Instance-classifier accuracy evaluation (paper §4.2, Tables 2-3).

    Protocol: run a classifier through all of an application's
    scenarios except bigone to build the instance profiles, then run
    the bigone scenario (a synthesis of the others) against the
    accumulated state. Because every bigone instance repeats a profiled
    context, a good context-based classifier should create no new
    classifications and correlate each bigone instance's communication
    vector with its classification's profile. *)

type row = {
  cr_kind : Coign_core.Classifier.kind;
  cr_depth : int option;
  cr_profiled_classifications : int;
  cr_new_in_bigone : int;
  cr_avg_instances : float;   (** instances per classification over the
                                  profiling scenarios *)
  cr_avg_correlation : float; (** mean correlation of bigone instances
                                  against their chosen profiles *)
}

val table2 : ?network:Coign_netsim.Network.t -> Coign_apps.App.t -> row list
(** All seven classifiers at full stack depth (paper Table 2). *)

val table3 :
  ?network:Coign_netsim.Network.t -> ?depths:int list -> Coign_apps.App.t -> row list
(** The IFCB classifier at increasing stack depths plus the complete
    walk (paper Table 3). Default depths: 1, 2, 3, 4, 8, 16. *)
