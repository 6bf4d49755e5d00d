package repro.baselines

import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel.Operator
import repro.core.{StorageConfig, VStoreConfigurator}
import repro.core.VStoreConfigurator.Configuration
import repro.query.QueryEngine
import repro.query.QueryEngine.Stage

/** The paper's alternative configurations (§6.2):
  *
  *  - 1->1: store only the golden format; every consumer also *consumes* the
  *    golden fidelity (a classic video DB oblivious to analytics). Fixed
  *    operating point: full accuracy, no cost elasticity.
  *  - 1->N: store only the golden format but consume VStore's per-consumer
  *    CFs — retrieval must decode the golden format and downconvert, capping
  *    every consumer at the golden decode speed (~23x realtime).
  *  - N->N: store one SF per unique CF (no coalescing) — VStore's speeds,
  *    but 21 stored versions' worth of ingest and storage cost.
  */
object Alternatives {

  sealed trait Config { def name: String }
  case object VStoreCfg extends Config { val name = "VStore" }
  case object OneToOne  extends Config { val name = "1->1" }
  case object OneToN    extends Config { val name = "1->N" }
  case object NToN      extends Config { val name = "N->N" }

  val all: Vector[Config] = Vector(VStoreCfg, OneToOne, OneToN, NToN)

  /** The N->N storage set: VStore's initial one-SF-per-CF nodes (§4.3),
    * without the golden node — each CF at its smallest-size coding that
    * keeps retrieval adequate for its fastest consumer.
    */
  def nToNSfs(cfg: Configuration): Vector[StorageFormat] = {
    val demands = StorageConfig.demands(VStoreConfigurator.storageInputs(cfg.derived))
    StorageConfig.initialNodes(cfg.profilerA, demands).filter(_.cfs.nonEmpty).map(_.sf)
  }

  /** Stages of a cascade under an alternative configuration. */
  def stages(alt: Config, cfg: Configuration, cascade: Seq[Operator], accuracy: Double): Seq[Stage] = {
    val golden = cfg.golden
    alt match {
      case VStoreCfg =>
        QueryEngine.stagesFor(cascade, accuracy, c => cfg.cfOf(c), c => cfg.sfOf(c))
      case OneToOne =>
        // consume the stored golden fidelity directly
        cascade.map(op => Stage(op, golden.fidelity, golden))
      case OneToN =>
        // VStore CFs, but every retrieval decodes the golden format: the SF
        // is golden regardless of the CF
        QueryEngine.stagesFor(cascade, accuracy, c => cfg.cfOf(c), _ => golden)
      case NToN =>
        // same CFs and per-CF SFs as VStore's uncoalesced initial set
        val sfOf = nToNSfs(cfg).map(sf => sf.fidelity -> sf).toMap
        QueryEngine.stagesFor(cascade, accuracy, c => cfg.cfOf(c), c => sfOf(cfg.cfOf(c)))
    }
  }

  /** 1->N caps retrieval at the golden decode speed *for the CF's sampling
    * rate*; VStore/N->N read their subscribed formats. Analytic query speed
    * under an alternative.
    */
  def querySpeed(alt: Config, cfg: Configuration, cascade: Seq[Operator], accuracy: Double): Double =
    QueryEngine.analyticQuerySpeed(stages(alt, cfg, cascade, accuracy))

  /** The formats an alternative stores for each ingested stream. */
  private def storedSfs(alt: Config, cfg: Configuration): Vector[StorageFormat] = alt match {
    case VStoreCfg         => cfg.sfs
    case OneToOne | OneToN => Vector(cfg.golden)
    case NToN              => nToNSfs(cfg)
  }

  /** Storage cost in bytes/sec of one ingested stream under an alternative. */
  def storageBytesPerSec(alt: Config, cfg: Configuration, video: VideoProfile): Double =
    storedSfs(alt, cfg).map(CodecModel.storedBytesPerSec(_, video)).sum

  /** Ingestion cost in cores for one realtime stream under an alternative. */
  def ingestCores(alt: Config, cfg: Configuration, video: VideoProfile): Double =
    CodecModel.ingestCores(storedSfs(alt, cfg), video)
}
