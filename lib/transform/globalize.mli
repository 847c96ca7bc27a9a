(** Globalization pass (paper §3.2): data used by spread/cross-cluster
    loops must be GLOBAL; the rest is CLUSTER; interface data follows the
    user-settable default. *)

type placement_default = Default_global | Default_cluster

val apply : ?default:placement_default -> Fortran.Ast.punit -> Fortran.Ast.punit
