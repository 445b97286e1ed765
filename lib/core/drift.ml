(* One cell per pair, sorted by pair. *)
type signature = { pairs : (int * int) array; weights : float array }

(* Sort by pair and sum the duplicates, in list order. *)
let of_list cells =
  let merged =
    List.fold_left
      (fun acc (pair, w) ->
        match acc with
        | (p, v) :: rest when p = pair -> (p, v +. w) :: rest
        | _ -> (pair, w) :: acc)
      []
      (List.stable_sort (fun (p, _) (q, _) -> compare p q) cells)
  in
  let cells = Array.of_list (List.rev merged) in
  { pairs = Array.map fst cells; weights = Array.map snd cells }

let of_counts counts = of_list (List.map (fun (pair, n) -> (pair, float_of_int n)) counts)

(* Two messages per call in the summaries. *)
let of_icc icc =
  let cell ~src ~dst ~count acc = ((src, dst), float_of_int (count / 2)) :: acc in
  of_list (Icc.fold_messages cell icc [])

let entries t = Array.to_list (Array.map2 (fun p w -> (p, w)) t.pairs t.weights)

(* Align both signatures to the cells of their union, in pair order:
   [a] as its weights and their cells, [b] as one weight per cell
   ([o] < 0: a pair of [a] only, > 0: of [b] only, 0: of both). *)
let similarity a b =
  let la = Array.length a.pairs and lb = Array.length b.pairs in
  let cells = Array.make la 0 and values = Array.make (la + lb) 0. in
  let rec align i j c =
    if i = la && j = lb then c
    else
      let o = if i = la then 1 else if j = lb then -1 else compare a.pairs.(i) b.pairs.(j) in
      if o <= 0 then cells.(i) <- c;
      if o >= 0 then values.(c) <- b.weights.(j);
      align (if o <= 0 then i + 1 else i) (if o >= 0 then j + 1 else j) (c + 1)
  in
  let n = align 0 0 0 in
  Window.cosine ~cells ~weights:a.weights ~values ~n

let drifted ?(threshold = 0.90) ~profile observed =
  similarity profile observed < threshold

let pair_count t = Array.length t.pairs
