type violation =
  | Source_not_input of Cdag.vertex
  | Sink_not_output of Cdag.vertex
  | Input_has_pred of Cdag.vertex

let rbw g =
  Cdag.fold_vertices g
    (fun acc v ->
      if Cdag.is_input g v && Cdag.in_degree g v > 0 then
        Input_has_pred v :: acc
      else acc)
    []
  |> List.rev

let hong_kung g =
  let strict =
    Cdag.fold_vertices g
      (fun acc v ->
        let acc =
          if Cdag.in_degree g v = 0 && not (Cdag.is_input g v) then
            Source_not_input v :: acc
          else acc
        in
        if Cdag.out_degree g v = 0 && not (Cdag.is_output g v) then
          Sink_not_output v :: acc
        else acc)
      []
  in
  List.rev_append strict (rbw g) |> List.sort compare

let is_hong_kung g = hong_kung g = []
let is_rbw g = rbw g = []
