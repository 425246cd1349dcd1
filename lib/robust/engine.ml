type problem = {
  imrm : Imrm.t;
  phi_must : bool array;
  phi_may : bool array;
  psi_must : bool array;
  psi_may : bool array;
  time_bound : float;
  reward_bound : float option;
}

let id = "robust-envelope"

let make ?engine ?reduction ~epsilon () =
  let run ?pool ?telemetry ?cancel p =
    Telemetry.with_span telemetry ("engine." ^ id) @@ fun () ->
    Envelope.until ?pool ?telemetry ?cancel ?engine ?reduction ~epsilon
      p.imrm ~phi_must:p.phi_must ~phi_may:p.phi_may ~psi_must:p.psi_must
      ~psi_may:p.psi_may ~time_bound:p.time_bound
      ~reward_bound:p.reward_bound
  in
  { Perf.Engine_intf.id; run }
