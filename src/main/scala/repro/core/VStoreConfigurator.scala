package repro.core

import repro.video.Knobs._
import repro.video.Formats
import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.{Consumer, Operator}

/** End-to-end backward derivation (paper Fig. 1 / §4.1):
  * consumers -> consumption formats (§4.2) -> storage formats (§4.3)
  * -> erosion plan (§4.4).
  */
object VStoreConfigurator {

  /** A complete derived configuration. */
  final case class Configuration(
      derived: Vector[ConsumptionConfig.Derived],
      storage: StorageConfig.Result,
      profilerA: Profiler,
      profilerB: Profiler,
  ) {
    /** CF of one consumer. */
    def cfOf(c: Consumer): Fidelity =
      derived.find(_.consumer == c)
        .getOrElse(throw new NoSuchElementException(s"consumer $c is not in this configuration"))
        .fidelity

    /** The storage format a consumer's CF subscribes to. */
    def sfOf(c: Consumer): StorageFormat =
      storage.subscription(ConsumptionFormat(cfOf(c)))

    def uniqueCfs: Vector[ConsumptionFormat] =
      derived.map(d => ConsumptionFormat(d.fidelity)).distinct

    def sfs: Vector[StorageFormat] = storage.sfs

    /** The stored golden format: the root of the richer-than tree. */
    def golden: StorageFormat = storage.root
  }

  /** Profiling videos per engine (§6.1: query A's operators are profiled on
    * jackson, query B's on dashcam).
    */
  def profilingVideo(op: Operator): VideoProfile =
    if (op.engine == "noscope") VideoProfile.jackson else VideoProfile.dashcam

  /** Derive the full configuration for the default 24 consumers, or any
    * subset, with an optional ingestion budget in cores per stream.
    */
  def derive(consumers: Seq[Consumer] = OperatorModel.consumers,
             ingestBudgetCores: Option[Double] = None): Configuration = {
    val profA = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)
    val profB = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.dashcam), VideoProfile.dashcam)
    val profilerOf = Map(VideoProfile.jackson -> profA, VideoProfile.dashcam -> profB)

    // 1) consumption formats
    val derived = consumers.map(c => ConsumptionConfig.derive(profilerOf(profilingVideo(c.op)), c)).toVector

    // 2) storage formats — a unified set for all operators/videos; the SF
    // profiler uses jackson (size model scale cancels out of the choices)
    val storage = StorageConfig.derive(profA, storageInputs(derived), ingestBudgetCores)

    Configuration(derived, storage, profA, profB)
  }

  /** The §4.3 input: (consumer, CF, consumption speed) per consumer. */
  def storageInputs(derived: Seq[ConsumptionConfig.Derived]): Vector[(Consumer, ConsumptionFormat, Double)] =
    derived.map(d => (d.consumer, ConsumptionFormat(d.fidelity), d.consumptionSpeed)).toVector

  /** Erosion inputs for a configuration: the richer-than tree and the
    * consumer views (consumption speed, and the codec model's retrieval
    * speed of any format at the consumer's sampling rate).
    */
  def erosionInputs(cfg: Configuration): (FormatTree, Vector[Erosion.ErosionConsumer]) = {
    val tree = Formats.buildTree(cfg.golden, cfg.sfs)
    val consumers = cfg.derived.map { d =>
      val fps = d.fidelity.sampling.fps
      Erosion.ErosionConsumer(d.consumer.toString, cfg.sfOf(d.consumer),
        d.consumptionSpeed, CodecModel.retrievalSpeed(_, fps))
    }
    (tree, consumers)
  }

  /** Bytes stored per day per storage format for one video stream. */
  def bytesPerDay(cfg: Configuration, video: VideoProfile): Map[StorageFormat, Double] =
    cfg.sfs.map(sf => sf -> CodecModel.storedBytesPerSec(sf, video) * 86400.0).toMap
}
