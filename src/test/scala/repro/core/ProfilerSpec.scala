package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.Operator

class ProfilerSpec extends AnyFunSuite {

  private def fresh() =
    new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)

  test("operator profiles are memoized per (op, fidelity)") {
    val p = fresh()
    val f = Fidelity.full
    val r1 = p.profileOp(OperatorModel.License, f)
    val r2 = p.profileOp(OperatorModel.License, f)
    assert(r1 === r2)
    assert(p.opRuns === 1)
  }

  test("different fidelities are separate runs") {
    val p = fresh()
    p.profileOp(OperatorModel.License, Fidelity.full)
    p.profileOp(OperatorModel.License, Fidelity.full.copy(quality = ImageQuality.Good))
    assert(p.opRuns === 2)
  }

  test("different operators at the same fidelity are separate runs") {
    val p = fresh()
    p.profileOp(OperatorModel.License, Fidelity.full)
    p.profileOp(OperatorModel.OCR, Fidelity.full)
    assert(p.opRuns === 2)
  }

  test("profiling delay accrues sample preparation plus consumption") {
    val p = fresh()
    p.profileOp(OperatorModel.NN, Fidelity.full)
    // NN consumes the 10 s sample at ~2x realtime => several seconds
    assert(p.opDelaySec > 3, s"${p.opDelaySec}")
    val before = p.opDelaySec
    p.profileOp(OperatorModel.NN, Fidelity.full) // memo hit: no extra delay
    assert(p.opDelaySec === before)
  }

  test("profile values come from the analytic backend") {
    val p = fresh()
    val f = Fidelity.full.copy(sampling = FrameSampling.S1_2)
    val r = p.profileOp(OperatorModel.Diff, f)
    assert(r.accuracy === OperatorModel.Diff.accuracy(f, VideoProfile.jackson))
    assert(math.abs(r.consumptionCost - OperatorModel.Diff.consumptionCost(f)) < 1e-12)
  }

  test("storage-format profiles are memoized; examinations counted") {
    val p = fresh()
    val sf = StorageFormat(Fidelity.full, Coding.slowestSmallest)
    val a = p.profileSf(sf)
    val b = p.profileSf(sf)
    assert(a === b)
    assert(p.sfRuns === 1 && p.sfExamined === 2)
  }

  test("codingsBySize is the encoded codings sorted by profiled size, for every fidelity") {
    val p = fresh()
    val encoded = Coding.space.filterNot(_.isRaw)
    Fidelity.space.foreach { f =>
      val want = encoded.sortBy(c => p.profileSf(StorageFormat(f, c)).bytesPerSec)
      assert(p.codingsBySize(f) === want, f.toString)
    }
  }

  test("codingsBySize profiles a fidelity once; a second call adds no runs or examinations") {
    val p = fresh()
    val f = Fidelity.full
    p.codingsBySize(f)
    assert(p.sfRuns === Coding.space.count(!_.isRaw))
    val (runs, examined) = (p.sfRuns, p.sfExamined)
    p.codingsBySize(f)
    assert(p.sfRuns === runs && p.sfExamined === examined)
  }

  test("the memos count each key's first request as a run, and return the model's values") {
    sealed trait Request
    final case class Op(op: Operator, f: Fidelity) extends Request
    final case class Sf(sf: StorageFormat) extends Request
    final case class Order(f: Fidelity) extends Request
    val video = VideoProfile.jackson
    val encoded = Coding.space.filterNot(_.isRaw)
    // a few fidelities per sequence, so requests repeat and hit the memos
    val genRequests = for {
      fs <- Gen.pick(4, Fidelity.space)
      n <- Gen.choose(0, 60)
      rs <- Gen.listOfN(n, Gen.oneOf(
        for (op <- Gen.oneOf(OperatorModel.all); f <- Gen.oneOf(fs.toSeq)) yield Op(op, f),
        for (f <- Gen.oneOf(fs.toSeq); c <- Gen.oneOf(Coding.space)) yield Sf(StorageFormat(f, c)),
        Gen.oneOf(fs.toSeq).map(Order(_))))
    } yield rs
    def modelSf(sf: StorageFormat) =
      Profiler.SfProfile(CodecModel.storedBytesPerSec(sf, video), CodecModel.ingestCores(sf, video))
    val prop = Prop.forAll(genRequests) { requests =>
      val p = fresh()
      val answers = requests.map {
        case Op(op, f) => p.profileOp(op, f)
        case Sf(sf)    => p.profileSf(sf)
        case Order(f)  => p.codingsBySize(f)
      }
      // the reference: the model's values, and the accounting of first requests
      val opKeys = requests.collect { case Op(op, f) => (op.name, f) }.distinct
      val orderFs = requests.collect { case Order(f) => f }.distinct
      val sfKeys = (requests.collect { case Sf(sf) => sf } ++
        orderFs.flatMap(f => encoded.map(StorageFormat(f, _)))).distinct
      // the first sort of each fidelity's codings examines both sides of every comparison
      val sortExamined = orderFs.map { f =>
        var keys = 0
        encoded.sortBy { c => keys += 1; modelSf(StorageFormat(f, c)).bytesPerSec }
        keys
      }.sum
      val goldenDecode = (f: Fidelity) => CodecModel.retrievalSpeed(
        StorageFormat(Fidelity.full, Coding.slowestSmallest), f.sampling.fps)
      val delay = requests.collect { case Op(op, f) => (op, f) }.distinctBy { case (op, f) => (op.name, f) }
        .foldLeft(0.0) { case (sum, (op, f)) =>
          sum + (Profiler.SampleClipSec / goldenDecode(f) + Profiler.SampleClipSec * op.consumptionCost(f))
        }
      val wants = requests.map {
        case Op(op, f) => Profiler.OpProfile(op.accuracy(f, video), op.consumptionCost(f))
        case Sf(sf)    => modelSf(sf)
        case Order(f)  => encoded.sortBy(c => modelSf(StorageFormat(f, c)).bytesPerSec)
      }
      val at = requests.mkString(" ")
      (p.opRuns == opKeys.size) :| s"opRuns ${p.opRuns} != ${opKeys.size}: $at" &&
        (p.sfRuns == sfKeys.size) :| s"sfRuns ${p.sfRuns} != ${sfKeys.size}: $at" &&
        (p.sfExamined == requests.count(_.isInstanceOf[Sf]) + sortExamined) :|
          s"sfExamined ${p.sfExamined}: $at" &&
        (p.opDelaySec == delay) :| s"opDelaySec ${p.opDelaySec} != $delay: $at" &&
        (answers == wants) :| s"answers: $at"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200)
      .withInitialSeed(Seed(16L)), prop)
    assert(result.passed, result)
  }

  test("sf profile reports model size and ingest cores") {
    val p = fresh()
    val sf = StorageFormat(Fidelity.full, Coding.slowestSmallest)
    val r = p.profileSf(sf)
    assert(r.bytesPerSec === CodecModel.storedBytesPerSec(sf, VideoProfile.jackson))
    assert(r.ingestCores === CodecModel.ingestCores(sf, VideoProfile.jackson))
  }
}
