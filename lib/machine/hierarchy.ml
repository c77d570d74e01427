type level_spec = { count : int; capacity : int }

type t = { specs : level_spec array }

let create specs_list =
  let specs = Array.of_list specs_list in
  if Array.length specs = 0 then invalid_arg "Hierarchy.create: no levels";
  Array.iter
    (fun { count; capacity } ->
      if count <= 0 then invalid_arg "Hierarchy.create: non-positive count";
      if capacity <= 0 then invalid_arg "Hierarchy.create: non-positive capacity")
    specs;
  for l = 0 to Array.length specs - 2 do
    let below = specs.(l).count and above = specs.(l + 1).count in
    if below < above then invalid_arg "Hierarchy.create: counts must weakly decrease";
    if below mod above <> 0 then
      invalid_arg "Hierarchy.create: count not divisible by parent count"
  done;
  { specs }

let n_levels h = Array.length h.specs

let check_level h level =
  if level < 1 || level > n_levels h then
    invalid_arg "Hierarchy: level out of range"

let count h ~level =
  check_level h level;
  h.specs.(level - 1).count

let capacity h ~level =
  check_level h level;
  h.specs.(level - 1).capacity

let processors h = count h ~level:1

let fan_out h ~level =
  check_level h level;
  if level >= n_levels h then invalid_arg "Hierarchy.fan_out: outermost level";
  h.specs.(level - 1).count / h.specs.(level).count

let parent_unit h ~level j =
  let f = fan_out h ~level in
  if j < 0 || j >= count h ~level then invalid_arg "Hierarchy.parent_unit: bad unit";
  j / f

let children_units h ~level j =
  check_level h level;
  if level <= 1 then invalid_arg "Hierarchy.children_units: innermost level";
  if j < 0 || j >= count h ~level then
    invalid_arg "Hierarchy.children_units: bad unit";
  let f = fan_out h ~level:(level - 1) in
  List.init f (fun i -> (j * f) + i)

let unit_of_processor h ~level p =
  check_level h level;
  if p < 0 || p >= processors h then
    invalid_arg "Hierarchy.unit_of_processor: bad processor";
  p / (processors h / count h ~level)

let cluster ~nodes ~cores ~s1 ~l2 ~mem =
  create
    [
      { count = nodes * cores; capacity = s1 };
      { count = nodes; capacity = l2 };
      { count = nodes; capacity = mem };
    ]

let pp_tree ppf h =
  let levels = n_levels h in
  for l = levels downto 1 do
    let indent = String.make (2 * (levels - l)) ' ' in
    Format.fprintf ppf "%sL%d: %d unit%s x %d words" indent l (count h ~level:l)
      (if count h ~level:l = 1 then "" else "s")
      (capacity h ~level:l);
    if l > 1 then
      Format.fprintf ppf "  (fan-out %d)" (fan_out h ~level:(l - 1));
    if l = 1 then Format.fprintf ppf "  <- processors";
    Format.pp_print_newline ppf ()
  done

let pp ppf h =
  Format.fprintf ppf "hierarchy[";
  Array.iteri
    (fun i { count; capacity } ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "L%d: %d x %d words" (i + 1) count capacity)
    h.specs;
  Format.fprintf ppf "]"
