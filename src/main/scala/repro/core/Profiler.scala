package repro.core

import scala.collection.mutable
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel.Operator

/** Profiling service with memoization and run accounting (paper §4.2/§4.3).
  *
  * Every (operator, fidelity) accuracy/cost observation and every
  * storage-format size/encode observation goes through here, so the benches
  * can report the number of profiling runs and the simulated profiling delay
  * exactly as the paper's Figure 13 does. Decode speed is read from
  * `CodecModel` directly: it rides along with the profiled size and encode
  * cost, and the paper does not count it as a run.
  */
object Profiler {

  /** Result of profiling one operator on one fidelity: measured accuracy and
    * consumption cost (wall-seconds per video-second, i.e. 1/speed).
    */
  final case class OpProfile(accuracy: Double, consumptionCost: Double)

  /** Result of profiling one storage format: stored size (bytes per video
    * second) and encode cost (cores per stream). Decode speed is not kept:
    * it follows from the format itself (`CodecModel.retrievalSpeed`).
    */
  final case class SfProfile(bytesPerSec: Double, ingestCores: Double)

  /** Seconds of profiling video each operator profile decodes and consumes. */
  val SampleClipSec: Double = 10.0

  /** Profiles operators analytically over a given profiling video (paper
    * profiles query A's operators on jackson and query B's on dashcam).
    */
  final class AnalyticOpBackend(video: VideoProfile) {
    def run(op: Operator, f: Fidelity): OpProfile =
      OpProfile(op.accuracy(f, video), op.consumptionCost(f))
  }
}

/** Stateful profiler for one configuration process. Its memos are arrays
  * indexed by the dense format ids (`Fidelity.id`, `StorageFormat.id`), so a
  * lookup reads one slot; a null slot is a profile not yet run.
  */
final class Profiler(backend: Profiler.AnalyticOpBackend, video: VideoProfile) {
  import Profiler._

  /** Operator ordinals in order of first request; `opMemo(ordinal)` holds
    * that operator's profiles by fidelity id.
    */
  private val opOrdinal = mutable.HashMap.empty[String, Int]
  private val opMemo = mutable.ArrayBuffer.empty[Array[OpProfile]]
  private val sfMemo = new Array[SfProfile](Fidelity.count * Coding.count)
  private val orderMemo = new Array[Vector[Coding]](Fidelity.count)
  private var opRunCount = 0
  private var sfRunCount = 0

  /** Number of operator profiling runs actually executed (memo misses). */
  def opRuns: Int = opRunCount
  /** Simulated wall-clock seconds spent running operator profiles: decoding/
    * preparing the sample plus consuming it at the operator's speed.
    */
  var opDelaySec: Double = 0.0
  /** Storage-format profiles: executed runs (memo misses). */
  def sfRuns: Int = sfRunCount
  /** Storage-format examinations: every `profileSf` request, hit or miss.
    * That includes both `profileSf` calls of every comparison that
    * `codingsBySize`'s sort makes on a memo miss (162 per fidelity). Those
    * are 5 832 of the default configuration's 6 016 (36 fidelities), so the
    * share of examinations that hit the memo is not a hit rate of
    * coalescing's own requests. A `codingsBySize` memo hit reads no profile
    * and is not an examination.
    */
  var sfExamined: Int = 0

  /** Profile (operator, fidelity); memoized across accuracy levels of the
    * same operator (paper §4.2 "memoizes profiling results").
    */
  def profileOp(op: Operator, f: Fidelity): OpProfile = {
    val ordinal = opOrdinal.getOrElseUpdate(op.name, {
      opMemo += new Array[OpProfile](Fidelity.count)
      opMemo.size - 1
    })
    val memo = opMemo(ordinal)
    if (memo(f.id) == null) {
      val p = backend.run(op, f)
      // preparing the sample (decode at golden-format speed) + running the op
      val goldenDecode = CodecModel.retrievalSpeed(
        StorageFormat(Fidelity.full, Coding.slowestSmallest), f.sampling.fps)
      opDelaySec += SampleClipSec / goldenDecode + SampleClipSec * p.consumptionCost
      opRunCount += 1
      memo(f.id) = p
    }
    memo(f.id)
  }

  /** Profile a would-be storage format: its size and ingest cost on the
    * profiling video. Memoized; `sfExamined` counts every request.
    */
  def profileSf(sf: StorageFormat): SfProfile = {
    sfExamined += 1
    val id = sf.id
    if (sfMemo(id) == null) {
      sfMemo(id) = SfProfile(CodecModel.storedBytesPerSec(sf, video), CodecModel.ingestCores(sf, video))
      sfRunCount += 1
    }
    sfMemo(id)
  }

  /** The encoded codings of fidelity `f`, smallest profiled size first (a
    * stable sort, so equal sizes keep `Coding.space` order). Memoized per
    * fidelity: the first call profiles every encoded format of `f`, later
    * calls profile nothing.
    */
  def codingsBySize(f: Fidelity): Vector[Coding] = {
    if (orderMemo(f.id) == null)
      orderMemo(f.id) = Coding.space.filterNot(_.isRaw).sortBy(c => profileSf(StorageFormat(f, c)).bytesPerSec)
    orderMemo(f.id)
  }
}
