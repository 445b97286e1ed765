type t = {
  f_inst : int;
  f_class : string;
  f_classification : int;
  f_iface : string;
  f_meth : string;
}

let make ~inst ~cls ~classification ~iface ~meth =
  { f_inst = inst; f_class = cls; f_classification = classification; f_iface = iface; f_meth = meth }
