type t = Registry.gauge

let make name = Registry.gauge name
let set g v = if !Registry.enabled then Registry.set_gauge g v
let get g = g.Registry.g_value
