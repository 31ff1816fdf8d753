module Server = Spm_server.Server
module Frontend = Spm_server.Frontend

type t = { port : int; frontend : Frontend.t; accept_thread : Thread.t }

let port t = t.port

let start ?jobs ?cache_capacity ?mine_timeout ?(host = "127.0.0.1")
    ?(port = 0) ?path store =
  let server = Server.create ?jobs ?cache_capacity ?mine_timeout () in
  Server.set_store server ?path store;
  let fd, port = Server.listen ~host ~port () in
  let frontend = Server.frontend server fd in
  { port; frontend; accept_thread = Thread.create Frontend.run frontend }

let stop t =
  Frontend.stop t.frontend;
  Thread.join t.accept_thread

let kill t = Frontend.kill t.frontend
