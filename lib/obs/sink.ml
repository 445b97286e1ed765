type 'a t = 'a -> unit

let null _ = ()

let collector () =
  let acc = ref [] in
  ((fun v -> acc := v :: !acc), fun () -> List.rev !acc)
