package repro.video

/** Content profile of one video stream (paper §6.1 datasets).
  *
  * The paper evaluates on six benchmark videos; we cannot ship them, so each
  * is characterised by the two content properties the paper's results hinge
  * on: motion intensity (drives coding cost/size — dashcam's heavy motion
  * makes it ~3x costlier to store, Fig. 11b) and the rate/difficulty of
  * ground-truth events (drives operator accuracy surfaces).
  *
  * @param name          dataset name as in the paper
  * @param motionFactor  multiplier on encoded size and encode cost (1.0 = jackson)
  * @param eventRate     fraction of frames containing a ground-truth positive
  * @param difficultyBias shifts the video's detection difficulty (0 = neutral);
  *                       higher values make low-fidelity detection harder
  */
final case class VideoProfile(
    name: String,
    motionFactor: Double,
    eventRate: Double,
    difficultyBias: Double,
) {
  require(motionFactor > 0 && eventRate > 0 && eventRate < 1)
}

object VideoProfile {
  val jackson = VideoProfile("jackson", 1.00, 0.30, 0.00)
  val miami   = VideoProfile("miami",   1.10, 0.35, 0.05)
  val tucson  = VideoProfile("tucson",  0.90, 0.25, -0.05)
  val dashcam = VideoProfile("dashcam", 3.20, 0.40, 0.10)
  val park    = VideoProfile("park",    0.85, 0.20, 0.00)
  val airport = VideoProfile("airport", 0.75, 0.22, -0.02)

  /** All six datasets, in the paper's order. */
  val all: Vector[VideoProfile] = Vector(jackson, miami, tucson, dashcam, park, airport)

  /** Query A (NoScope: Diff, S-NN, NN) runs on the first three videos;
    * query B (ALPR: Motion, License, OCR) on the remaining three (§6.1).
    */
  val queryAVideos: Vector[VideoProfile] = Vector(jackson, miami, tucson)
  val queryBVideos: Vector[VideoProfile] = Vector(dashcam, park, airport)
}
