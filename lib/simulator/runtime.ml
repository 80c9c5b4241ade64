module Warm_mode = struct
  type t = Off | On | Verify

  let to_string = function Off -> "off" | On -> "on" | Verify -> "verify"

  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "off" | "0" | "cold" -> Ok Off
    | "on" | "1" | "warm" -> Ok On
    | "verify" | "check" -> Ok Verify
    | other ->
        Error
          (Printf.sprintf "bad warm-start mode %S (want off|on|verify)" other)
end

module Check_mode = struct
  type t = Off | On | Race

  let to_string = function Off -> "off" | On -> "on" | Race -> "race"

  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "" | "off" | "0" | "false" -> Ok Off
    | "on" | "1" | "true" -> Ok On
    | "race" | "hb" -> Ok Race
    | other ->
        Error (Printf.sprintf "bad check mode %S (want off|on|race)" other)
end

module Fault = struct
  type scope = Transient | Full

  type t = { rate : float; seed : int; scope : scope }

  let parse s =
    match String.trim s with
    | "" | "0" | "off" -> Ok None
    | s -> (
        match String.split_on_char ':' s with
        | [ rate ] | [ rate; _ ] | [ rate; _; _ ]
          when float_of_string_opt rate = Some 0.0 ->
            Ok None
        | ([ rate; seed ] | [ rate; seed; _ ]) as fields -> (
            let scope =
              match fields with
              | [ _; _; "full" ] -> Ok Full
              | [ _; _ ] -> Ok Transient
              | [ _; _; other ] ->
                  Error
                    (Printf.sprintf "bad fault scope %S (want \"full\")" other)
              | _ -> assert false
            in
            match (float_of_string_opt rate, int_of_string_opt seed, scope) with
            | Some rate, Some seed, Ok scope when rate > 0.0 && rate <= 1.0 ->
                Ok (Some { rate; seed; scope })
            | Some _, Some _, (Ok _ as _ok) ->
                Error (Printf.sprintf "fault rate %S not in (0,1]" rate)
            | _, _, (Error _ as e) -> e
            | None, _, _ -> Error (Printf.sprintf "bad fault rate %S" rate)
            | _, None, _ -> Error (Printf.sprintf "bad fault seed %S" seed))
        | _ ->
            Error
              (Printf.sprintf "bad fault syntax %S (want RATE:SEED[:full])" s))

  let pp ppf t =
    Format.fprintf ppf "rate %.3f, seed %d, %s" t.rate t.seed
      (match t.scope with Transient -> "transient" | Full -> "full")
end

type t = {
  jobs : int option;
  warm : Warm_mode.t;
  check : Check_mode.t;
  faults : Fault.t option;
  trace : Obs.Trace.mode;
  port : int option;
  deadline_ms : int;
}

let default =
  {
    jobs = None;
    warm = Warm_mode.On;
    check = Check_mode.Off;
    faults = None;
    trace = Obs.Trace.Off;
    port = None;
    deadline_ms = 1000;
  }

let parse_int ~ok ~want what s =
  match int_of_string_opt (String.trim s) with
  | Some n when ok n -> Ok n
  | Some _ | None -> Error (Printf.sprintf "bad %s %S (want %s)" what s want)

let parse_jobs =
  parse_int ~ok:(fun n -> n >= 1) ~want:"a positive integer" "job count"

let parse_port =
  parse_int ~ok:(fun n -> n >= 1 && n <= 65535) ~want:"1..65535" "port"

let parse_deadline_ms =
  parse_int ~ok:(fun n -> n >= 0) ~want:"milliseconds >= 0; 0 = none"
    "deadline"

(* One row per knob: its environment variable, its flags, and how a
   value string updates the record.  [of_env] and [with_argv] both read
   this table, so a knob string means the same in either place. *)
let knobs =
  let row var flags parse set =
    (var, flags, fun rt s -> Result.map (set rt) (parse s))
  in
  [
    row "RD_JOBS" [ "--jobs"; "-j" ] parse_jobs (fun rt n ->
        { rt with jobs = Some n });
    row "RD_WARM" [ "--warm" ] Warm_mode.parse (fun rt warm -> { rt with warm });
    row "RD_CHECK" [ "--check" ] Check_mode.parse (fun rt check ->
        { rt with check });
    row "RD_FAULTS" [ "--faults" ] Fault.parse (fun rt faults ->
        { rt with faults });
    row "RD_TRACE" [ "--trace" ] Obs.Trace.parse (fun rt trace ->
        { rt with trace });
    row "RD_PORT" [ "--port" ] parse_port (fun rt p -> { rt with port = Some p });
    row "RD_DEADLINE_MS" [ "--deadline-ms" ] parse_deadline_ms
      (fun rt deadline_ms -> { rt with deadline_ms });
  ]

(* An unset or empty variable means "keep the default"; empty-string
   unsetting lets tests restore the environment with Unix.putenv. *)
let of_env () =
  List.fold_left
    (fun rt (var, _, apply) ->
      match Option.map String.trim (Sys.getenv_opt var) with
      | None | Some "" -> rt
      | Some s -> (
          match apply rt s with
          | Ok rt -> rt
          | Error msg ->
              Logs.warn (fun m -> m "ignoring %s: %s" var msg);
              rt))
    default knobs

let with_argv rt args =
  let rec go rt acc = function
    | [] -> Ok (rt, List.rev acc)
    | arg :: rest -> (
        let key, inline =
          match String.index_opt arg '=' with
          | Some i ->
              ( String.sub arg 0 i,
                Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
          | None -> (arg, None)
        in
        match List.find_opt (fun (_, flags, _) -> List.mem key flags) knobs with
        | None -> go rt (arg :: acc) rest
        | Some (_, _, apply) -> (
            match (inline, rest) with
            | None, [] -> Error (Printf.sprintf "%s needs a value" key)
            | Some v, rest | None, v :: rest -> (
                match apply rt v with
                | Ok rt -> go rt acc rest
                | Error msg -> Error (Printf.sprintf "%s: %s" key msg))))
  in
  go rt [] args

(* The ambient configuration.  A plain ref under a mutex: reads are not
   on any hot path (the pool resolves jobs once per batch, the engine
   reads warm mode once per run). *)
let cache : t option ref = ref None

let cache_mutex = Mutex.create ()

let apply rt = Obs.Trace.set_mode rt.trace

let current () =
  match
    Mutex.protect cache_mutex (fun () ->
        match !cache with
        | Some rt -> (rt, false)
        | None ->
            let rt = of_env () in
            cache := Some rt;
            (rt, true))
  with
  | rt, fresh ->
      if fresh then apply rt;
      rt

let set rt =
  Mutex.protect cache_mutex (fun () -> cache := Some rt);
  apply rt

let set_jobs jobs = set { (current ()) with jobs }

let set_warm warm = set { (current ()) with warm }

let set_check check = set { (current ()) with check }

let set_faults faults = set { (current ()) with faults }

let set_trace trace = set { (current ()) with trace }

let set_port port = set { (current ()) with port }

let set_deadline_ms deadline_ms = set { (current ()) with deadline_ms }

let jobs () =
  match (current ()).jobs with
  | Some j -> max 1 j
  | None -> Domain.recommended_domain_count ()

let warm () = (current ()).warm

let check () = (current ()).check

let faults () = (current ()).faults

let trace () = Obs.Trace.mode ()

let port () = (current ()).port

let deadline_ms () = (current ()).deadline_ms

let pp ppf rt =
  Format.fprintf ppf
    "jobs %s, warm %s, check %s, faults %s, trace %s, port %s, deadline %s"
    (match rt.jobs with Some j -> string_of_int j | None -> "auto")
    (Warm_mode.to_string rt.warm)
    (Check_mode.to_string rt.check)
    (match rt.faults with
    | Some f -> Format.asprintf "(%a)" Fault.pp f
    | None -> "off")
    (Obs.Trace.mode_to_string rt.trace)
    (match rt.port with Some p -> string_of_int p | None -> "unix")
    (if rt.deadline_ms = 0 then "none"
     else string_of_int rt.deadline_ms ^ "ms")
