(* Scoped runtime configuration for the tests and the bench.  Every
   override goes through Simulator.Runtime (and re-syncs the RD_CHECK
   hook) and is undone afterwards, so a test behaves the same under any
   RD_* setting and one bench section never leaks into the next. *)

module Runtime = Simulator.Runtime

let with_runtime change f =
  let set rt =
    Runtime.set rt;
    Analysis.Ownership.ensure ()
  in
  let prior = Runtime.current () in
  set (change prior);
  Fun.protect ~finally:(fun () -> set prior) f

let with_warm warm = with_runtime (fun rt -> { rt with Runtime.warm })

let with_check check = with_runtime (fun rt -> { rt with Runtime.check })

let with_faults faults = with_runtime (fun rt -> { rt with Runtime.faults })

(* For tests of the resume mechanics themselves: they need [from] to be
   honoured whatever RD_WARM says. *)
let resuming f () = with_warm Runtime.Warm_mode.On f
