type t = { svc : Server.Service.t }

let create () =
  { svc = Server.Service.create (Server.Service.default_config ~clock:Client.now ()) }

type timing = { parse : float; exec : float; render : float }

let total t = t.parse +. t.exec +. t.render

let answer t line =
  let t0 = Client.now () in
  let envelope =
    match Server.Protocol.of_line line with
    | Ok e -> e
    | Error e -> failwith ("reference request rejected: " ^ e.Server.Protocol.message)
  in
  let t1 = Client.now () in
  let json = Server.Service.execute t.svc envelope in
  let t2 = Client.now () in
  let text = Io.Json.to_string json in
  let t3 = Client.now () in
  (json, text, { parse = t1 -. t0; exec = t2 -. t1; render = t3 -. t2 })

let number path json =
  let rec go json = function
    | [] -> Io.Json.to_float json
    | key :: rest -> Option.bind (Io.Json.member key json) (fun j -> go j rest)
  in
  go json path
