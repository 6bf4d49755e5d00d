package repro

/** One row of the ingest-format frame table (`SynthVideo.frames`), for tests
  * that collect frames and recompute on the driver what the store and the
  * cascade compute in Spark.
  */
final case class Frame(video: String, segId: Long, frameIdx: Int, frame: Long,
                       isEvent: Boolean, difficulty: Double, motion: Double)
